(** Canonical structural fingerprints of aFSAs: an MD5 digest over an
    unambiguous serialization of exactly the components
    {!Afsa.structurally_equal} compares. Equal fingerprints ⟺
    structural equality (up to MD5 collisions); fingerprint {e
    minimized} automata to get a language-canonical key, since
    {!Minimize.minimize} numbers states canonically. The digest is
    cached in the automaton ([fp] field): computing it mutates the
    record, so follow the same single-domain discipline as the
    automaton's lazy CSRs; reading a cached digest is safe from any
    domain. *)

val digest : Afsa.t -> string
(** The 16-byte raw digest, computed on first call and cached. *)

val hex : Afsa.t -> string
(** {!digest} in hexadecimal (for display, registries, JSON). *)

val peek : Afsa.t -> string option
(** The cached digest, without computing. *)

val equal : Afsa.t -> Afsa.t -> bool
(** Digest equality (physical fast path); computes as needed. *)

val cached_equal : Afsa.t -> Afsa.t -> bool option
(** Equality decided from cached digests alone: [None] when undecided
    (some side not yet fingerprinted and not physically equal). Never
    computes a digest. *)

val serialize : Afsa.t -> string
(** The canonical serialization the digest is taken over (exposed for
    tests and debugging). *)

val compute : Afsa.t -> string
(** Digest without consulting or filling the cache. *)
