(** The controlled-evolution pipeline of the paper's Fig. 4 across all
    partners, with transitive propagation: auto-applied partner
    adaptations are themselves changes and re-enter the pipeline until
    quiescence or 8 rounds. Every Fig. 4 step runs inside a trace span
    (see DESIGN.md §7).

    Every entry point takes one {!Chorev_config.Config.t} (default
    [Chorev_config.Config.default]). Algebra steps go through
    [Chorev_cache.Memo], which stands down under a limited ambient
    budget. *)

type partner_report = {
  partner : string;
  verdict : Chorev_change.Classify.verdict;
  outcome : Chorev_propagate.Engine.outcome option;
      (** [None] for invariant changes *)
  repair : Chorev_repair.Amend.result option;
      (** the amendment search run when the engine left this partner
          inconsistent and [config.repair] is set; [Some] with
          [repaired = Some _] means the partner was self-healed and
          the amended process propagated like any auto-adaptation *)
  degraded : Chorev_guard.Degrade.t list;
      (** classification-level budget trips (the partner is then
          conservatively treated as invariant); engine-level trips are
          on [outcome.degraded] *)
}

type round = {
  originator : string;
  public_changed : bool;
  partners : partner_report list;
}

type report = {
  rounds : round list;
  choreography : Model.t;  (** the evolved choreography *)
  consistent : bool;
}

(** Cross-round incremental state for {!run}: a cache of whole
    per-partner pipeline steps, keyed by input fingerprints and
    LRU-bounded. Owned by the coordinator — create one per logical
    evolution history and pass it to successive {!run} calls to reuse
    the work of rounds whose inputs did not change. It stands down when
    [Chorev_config.Config.budgeted config] holds (a cached step could
    mask a budget trip). Repeated bilateral checks need no handle: the
    memo's [pair] table answers them. *)
module Cache : sig
  type t

  val create : unit -> t
  (** 4,096 entries. *)

  val stats : t -> (string * Chorev_cache.Lru.stats) list
  (** One row, [steps]. *)
end

val run :
  ?config:Chorev_config.Config.t ->
  ?cache:Cache.t ->
  Model.t ->
  owner:string ->
  changed:Chorev_bpel.Process.t ->
  (report, [ `Unknown_party of string ]) result
(** Evolve the choreography by replacing [owner]'s private process with
    [changed]. Total in [owner]. With [cache], per-partner steps whose
    fingerprinted inputs are unchanged since an earlier run with the
    same handle are reused verbatim; the report is structurally
    identical to a cache-less run. *)

(** {2 Resumable runs}

    {!run} is {!start} followed by {!run_from}. A durable driver
    commits each round through [on_round] and, after a crash, rebuilds
    the {!progress} from its journal with {!replay_round} before
    continuing the same loop. *)

type progress = {
  owner : string;  (** the run's originator *)
  model : Model.t;  (** the choreography after the rounds run so far *)
  rounds_run : int;
  pending : (string * Chorev_bpel.Process.t) list;
      (** next originators and their changed processes, in order *)
}

val start : Model.t -> owner:string -> changed:Chorev_bpel.Process.t -> progress

val replay_round :
  progress -> adapted:(string * Chorev_bpel.Process.t) list -> progress
(** Advance past a round an earlier run committed: the head of
    [pending] takes its changed process, each [adapted] partner its new
    one (in the order the round returned them), and pending work is
    rebuilt with the live loop's own filter against the pre-round
    model. No algebra beyond public regeneration runs.
    @raise Invalid_argument if nothing is pending. *)

val run_from :
  ?config:Chorev_config.Config.t ->
  ?cache:Cache.t ->
  ?on_round:(round -> (string * Chorev_bpel.Process.t) list -> unit) ->
  progress ->
  report
(** {!run}'s loop from [progress]: at most 8 rounds in all, counting
    those already run. [on_round round adapted] sees each round and its
    auto-adapted partners before the loop moves on — a durable driver's
    commit point. The report's [rounds] are the rounds this call ran. *)

val dry_run :
  ?config:Chorev_config.Config.t ->
  Model.t ->
  owner:string ->
  changed:Chorev_bpel.Process.t ->
  (partner_report list, [ `Unknown_party of string ]) result
(** Impact analysis: classification and (for variant partners)
    propagation suggestions, with nothing applied anywhere. Empty when
    the public view is unchanged. [config.auto_apply] is ignored. *)

val run_op :
  ?config:Chorev_config.Config.t ->
  Model.t ->
  owner:string ->
  Chorev_change.Ops.t ->
  (report, [ `Unknown_party of string | `Op of string ]) result
(** Apply a change operation to the owner's private process, then
    evolve. *)

val pp_round : Format.formatter -> round -> unit
val pp_report : Format.formatter -> report -> unit
