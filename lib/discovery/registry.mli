(** Process-annotated service discovery (Sec. 6, after the IPSI-PF
    matchmaking engine): a registry of advertised public processes
    queried by bilateral consistency — the paper's improved-precision
    alternative to keyword UDDI lookup.

    The registry is also the identity service of the serving layer:
    every advertised public process is interned (structurally equal
    publics share one physical aFSA) and keyed by its structural
    fingerprint, entries carry a {e stable id} and a {e version}, and
    {!find_by_structure} is a hash lookup — no automata algebra. The
    tenant store re-advertises every party through {!register} after
    each evolution and reads ids and versions back with
    {!find_by_name}. *)

module Afsa = Chorev_afsa.Afsa
module Label = Chorev_afsa.Label

type entry = {
  id : string;
      (** stable identifier, minted at the first registration of
          [name] and kept across re-registrations (version bumps) and
          even across [remove]/re-register cycles within one registry *)
  name : string;
  party : string;
  version : int;  (** bumped on every structural re-registration *)
  public : Afsa.t;
  description : string;
  fp : string;  (** structural fingerprint of [public] (interned) *)
}

type t

val create : unit -> t

val register :
  t -> name:string -> party:string -> ?description:string -> Afsa.t -> entry
(** The versioned entry point. A new [name] mints a fresh stable id and
    registers version 1; re-registering an existing [name] with a
    structurally different public replaces the advertised process and
    returns the same id with the version bumped; re-registering the
    {e same} structure is idempotent (the current entry is returned
    unchanged — no version bump). The advertised automaton is interned,
    so structurally equal publics share one physical aFSA across the
    whole registry. *)

val advertise :
  t -> name:string -> party:string -> ?description:string -> Afsa.t -> unit
(** {!register} restricted to first registrations: raises
    [Invalid_argument] on duplicate names (the strict UDDI-style
    publish used by the discovery scenario and tests). *)

val advertise_process :
  t -> name:string -> ?description:string -> Chorev_bpel.Process.t -> unit
(** Derives and stores only the public process — the private
    implementation never enters the registry. *)

val remove : t -> string -> unit
(** Remove [name]'s entry. The name's stable id and last version are
    retained: a later {!register} of the same name resumes its version
    sequence under the same id. *)

val size : t -> int

val entries : t -> entry list
(** All current entries, in first-registration order (re-registration
    keeps an entry's position). *)

val find_by_name : t -> string -> entry option

val fingerprint : entry -> string
(** The key an entry is stored under: the structural fingerprint of its
    (interned) public process. *)

val find_by_structure : t -> Afsa.t -> entry list
(** All services whose advertised public process is structurally equal
    to the given automaton, in first-registration order. "Structurally
    equal" is exactly [Chorev_afsa.Fingerprint]'s notion (same states,
    transitions and annotations up to the canonical serialization —
    the equivalence [structurally_equal] decides), looked up in the
    fingerprint index: O(1) plus the digest of the probe automaton
    (itself cached on the automaton), never an automata-algebra
    operation. *)

val mem_structure : t -> Afsa.t -> bool

type match_result = {
  entry : entry;
  conversations : int;
      (** distinct deadlock-free conversations up to the ranking bound *)
  shortest : Label.t list option;
}

val query_keyword : t -> requester:Afsa.t -> entry list
(** The classical-UDDI baseline: services sharing an operation name. *)

val query :
  ?horizon:int -> t -> party:string -> requester:Afsa.t ->
  match_result list
(** Bilaterally consistent services (on the requester-party views),
    ranked by conversation richness, descending. *)

val precision :
  t -> party:string -> requester:Afsa.t -> string list * string list
(** (consistent names, keyword names) — the former is a subset. *)

val pp_match : Format.formatter -> match_result -> unit
