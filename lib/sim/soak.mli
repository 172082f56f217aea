(** Multi-seed soak of the simulator against the synchronous oracle:
    seeds × fault profiles fan out over the domain pool; every run must
    converge to the oracle's [agreed] verdict and a language-equal
    final model. *)

module Model = Chorev_choreography.Model

type check = {
  seed : int;
  profile : string;
  converged : bool;
  agreed_match : bool;
  final_match : bool;
  ticks : int;
  sent : int;
  dropped : int;
  retries : int;
}

val ok : check -> bool

type summary = {
  runs : int;
  failures : check list;
  max_ticks_seen : int;
  total_sent : int;
  total_dropped : int;
  total_retries : int;
}

val run :
  ?pool:Chorev_parallel.Pool.t ->
  ?profiles:Fault.profile list ->
  ?seeds:int list ->
  ?max_ticks:int ->
  Model.t ->
  owner:string ->
  changed:Chorev_bpel.Process.t ->
  check list
(** Deterministic profiles-major order for every pool size. Defaults:
    lossy/jittery/chaos profiles, seeds 0–49. *)

val summarize : check list -> summary
val all_ok : check list -> bool
val models_match : Model.t -> Model.t -> bool
val pp_check : Format.formatter -> check -> unit
val pp_summary : Format.formatter -> summary -> unit

(** {1 Bad-change injection soak}

    The self-healing invariant: every seeded-bad-change run ends
    {e repaired} (agreed, converged, no rollback) or {e causally
    reverted} (agreed, and every party byte-identical to its
    pre-change snapshot) — never half-applied. *)

type inject_check = {
  i_seed : int;
  i_class : string;  (** "no-adapt" | "repair" | "starved" (seed mod 3) *)
  i_converged : bool;
  i_agreed : bool;
  i_repairs : int;
  i_cone : int;  (** rolled-back cone size; 0 = no rollback ran *)
  i_ok : bool;
}

val inject_ok : inject_check -> bool

val run_inject :
  ?pool:Chorev_parallel.Pool.t ->
  ?runs:int ->
  ?inject_at:int ->
  ?profile:Fault.profile ->
  Model.t ->
  owner:string ->
  inject_check list
(** [runs] (default 60) seeded injections decorating [profile] (default
    lossy) via {!Fault.with_inject}, rollback armed; seed classes cycle
    no-adapt / generous-repair / fuel-starved. Results are in seed
    order — and identical — at every pool size. *)

val pp_inject_check : Format.formatter -> inject_check -> unit
