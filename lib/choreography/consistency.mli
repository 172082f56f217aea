(** Choreography-wide consistency: every interacting pair, compared on
    mutual bilateral views (Sec. 3.4). Functions taking user-supplied
    party names are total: unknown parties surface as
    [`Unknown_party]. *)

type pair_verdict = {
  party_a : string;
  party_b : string;
  consistent : bool;
  witness : Chorev_afsa.Label.t list option;
}

val check_pair :
  Model.t ->
  string ->
  string ->
  (pair_verdict, [ `Unknown_party of string ]) result

val consistent_pair :
  Model.t -> string -> string -> (bool, [ `Unknown_party of string ]) result

val check_all : ?pool:Chorev_parallel.Pool.t -> Model.t -> pair_verdict list
(** One verdict per interacting pair, in [Model.pairs] order. Total:
    broken member entries are skipped, never raised on. The per-pair
    checks fan out over the pool (default {!Chorev_parallel.Pool.default},
    which is sequential unless [--jobs]/[CHOREV_DOMAINS] say otherwise);
    the result is structurally equal to the sequential one for every
    pool size. Views and verdicts go through [Chorev_cache.Memo]'s
    per-domain tables, so a pair whose views are unchanged since an
    earlier check in the same domain is answered by the [pair] table. *)

val consistent : ?pool:Chorev_parallel.Pool.t -> Model.t -> bool

val protocol :
  Model.t ->
  string ->
  string ->
  (Chorev_afsa.Afsa.t, [ `Unknown_party of string ]) result
(** The agreed protocol of two parties — the annotated intersection of
    their mutual views ("the protocol between them", Sec. 4.2); empty
    iff inconsistent. *)

val pp_verdict : Format.formatter -> pair_verdict -> unit
