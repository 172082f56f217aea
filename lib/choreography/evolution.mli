(** The controlled-evolution pipeline of the paper's Fig. 4 across all
    partners, with transitive propagation: auto-applied partner
    adaptations are themselves changes and re-enter the pipeline until
    quiescence or [config.max_rounds]. Every Fig. 4 step runs inside a
    trace span (see DESIGN.md §7). *)

type config = Chorev_propagate.Engine.config = {
  auto_apply : bool;
      (** attempt the suggested private-process adaptations
          (default [true]) *)
  max_rounds : int;  (** transitive-propagation bound (default 8) *)
  obs : Chorev_obs.Sink.t option;
      (** trace sink installed for the duration of the run; [None]
          (default) inherits the ambient {!Chorev_obs.Obs} sink *)
  jobs : int;
      (** domain-pool size for the per-partner fan-out of each round
          and the final consistency sweep; [0] (default) defers to
          [Chorev_parallel.Pool.default_size] ([--jobs] /
          [CHOREV_DOMAINS]). Results are structurally identical for
          every pool size. *)
  op_budget : Chorev_guard.Budget.spec;
      (** bound on each algebra step (classification, view, delta,
          re-check); budgets are minted inside the pool tasks, so
          fuel-only budgets trip identically at every pool size
          (default: unlimited) *)
  round_budget : Chorev_guard.Budget.spec;
      (** bound on one whole partner pipeline (default: unlimited) *)
  cancel : Chorev_guard.Budget.Cancel.t option;
      (** cooperative cancellation token shared by every budget minted
          from this config (default: [None]) *)
  cache : bool;
      (** route algebra operations through the fingerprint-keyed memo
          tables of [Chorev_cache] and honour a coordinator {!Cache.t}
          when one is passed to {!run} (default [true]; results are
          identical either way — set [false] / [--no-cache] for A/B
          runs) *)
  repair : Chorev_config.Config.repair;
      (** self-healing policy: when enabled, a failed propagation step
          triggers an amendment search over the partner's private
          process before the failure is reported (default:
          [Chorev_config.Config.repair_off]) *)
}
(** Alias of {!Chorev_config.Config.t} (via
    {!Chorev_propagate.Engine.config}): one record configures the
    per-partner engine, the whole-choreography pipeline and the
    serving layer's per-request overrides. *)

val default : config
(** [auto_apply = true], [max_rounds = 8], no sink, [jobs = 0],
    unlimited budgets, no cancellation token, [cache = true]. *)

type partner_report = {
  partner : string;
  verdict : Chorev_change.Classify.verdict;
  outcome : Chorev_propagate.Engine.outcome option;
      (** [None] for invariant changes *)
  repair : Chorev_repair.Amend.result option;
      (** the amendment search run when the engine left this partner
          inconsistent and [config.repair.enabled]; [Some] with
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

(** Cross-round incremental state for {!run}: a session of bilateral
    consistency verdicts plus a cache of whole per-partner pipeline
    steps, both keyed by input fingerprints and LRU-bounded. Owned by
    the coordinator — create one per logical evolution history and pass
    it to successive {!run} calls to reuse the work of rounds whose
    inputs did not change. Ignored when [config.cache = false], and the
    step cache additionally stands down when a budget or cancellation
    token is configured (a cached step could mask a budget trip). *)
module Cache : sig
  type step = partner_report * Chorev_bpel.Process.t option

  type t = {
    session : Chorev_cache.Session.t;
    steps : (string, step) Chorev_cache.Lru.t;
  }

  val create : ?capacity:int -> unit -> t
  (** Default capacity 4096 entries per table. *)

  val stats : t -> (string * Chorev_cache.Lru.stats) list
end

val run :
  ?config:config ->
  ?cache:Cache.t ->
  Model.t ->
  owner:string ->
  changed:Chorev_bpel.Process.t ->
  (report, [ `Unknown_party of string ]) result
(** Evolve the choreography by replacing [owner]'s private process with
    [changed]. Total in [owner]. With [cache] (and [config.cache], the
    default), per-partner steps and bilateral verdicts whose
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
  ?config:config ->
  ?cache:Cache.t ->
  ?on_round:(round -> (string * Chorev_bpel.Process.t) list -> unit) ->
  progress ->
  report
(** {!run}'s loop from [progress]: at most [config.max_rounds] rounds
    in all, counting those already run. [on_round round adapted] sees
    each round and its auto-adapted partners before the loop moves on —
    a durable driver's commit point. The report's [rounds] are the
    rounds this call ran. *)

val dry_run :
  ?config:config ->
  Model.t ->
  owner:string ->
  changed:Chorev_bpel.Process.t ->
  (partner_report list, [ `Unknown_party of string ]) result
(** Impact analysis: classification and (for variant partners)
    propagation suggestions, with nothing applied anywhere. Empty when
    the public view is unchanged. [config.auto_apply] is ignored. *)

val run_op :
  ?config:config ->
  Model.t ->
  owner:string ->
  Chorev_change.Ops.t ->
  (report, [ `Unknown_party of string | `Op of string ]) result
(** Apply a change operation to the owner's private process, then
    evolve. *)

val pp_round : Format.formatter -> round -> unit
val pp_report : Format.formatter -> report -> unit
