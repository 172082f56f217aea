(** Classification of changes (Sec. 4): additive/subtractive along the
    change-framework dimension (Def. 5, via aFSA difference) and
    variant/invariant along the propagation dimension (Def. 6, via
    annotated intersection emptiness against a partner). Both are
    computed on bilateral views. *)

module Afsa = Chorev_afsa.Afsa

type framework = {
  additive : bool;  (** A′ ∖ A ≠ ∅ *)
  subtractive : bool;  (** A ∖ A′ ≠ ∅ *)
}
(** Def. 5's two verdicts, without the difference automata they are
    decided on. *)

type propagation = Invariant | Variant

val equal_propagation : propagation -> propagation -> bool
val pp_propagation : Format.formatter -> propagation -> unit
val show_propagation : propagation -> string

type verdict = {
  partner : string;
  framework : framework;
  propagation : propagation;
}

(** Each operation below goes through [Chorev_cache.Memo]'s
    fingerprint-keyed tables — identical results, memoized; the memo
    layer stands down by itself under a limited ambient budget. *)

val framework : old_public:Afsa.t -> new_public:Afsa.t -> unit -> framework

val propagation :
  new_public:Afsa.t -> partner_public:Afsa.t -> unit -> propagation

val classify :
  owner:string ->
  partner:string ->
  old_public:Afsa.t ->
  new_public:Afsa.t ->
  partner_public:Afsa.t ->
  unit ->
  verdict
(** Takes the partner's views of both versions internally. *)

val public_unchanged : old_public:Afsa.t -> new_public:Afsa.t -> unit -> bool
(** Language- and annotation-equal: the change is local, nothing to
    propagate (top of the paper's Fig. 4). While the memo is active
    the minimized forms come from its tables and the comparison is by
    fingerprint — same verdict, O(1) when recurring. *)

val requires_propagation : verdict -> bool
val pp_verdict : Format.formatter -> verdict -> unit
