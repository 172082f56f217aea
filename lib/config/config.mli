(** The one configuration record of the evolution stack: one value
    configures the per-partner engine ([Propagate.Engine.run]), the
    whole-choreography pipeline ([Choreography.Evolution]), the
    journaled driver and the serving layer's per-request variants,
    none of which re-declares it. *)

type repair = {
  enabled : bool;
      (** attempt automatic partner amendment (and, in the simulator,
          causal rollback) when a propagation step fails (default
          [false]) *)
  max_candidates : int;
      (** bound on the amendment candidate queue per failed step
          (default 64) *)
  max_edits : int;
      (** candidates combine at most this many primitive edits
          (default 2; 1 disables pair candidates) *)
  repair_budget : Chorev_guard.Budget.spec;
      (** fuel/deadline for one whole amendment search; minted inside
          the pool task, so fuel-only budgets trip identically at every
          pool size (default: unlimited) *)
}

val repair_off : repair
(** [enabled = false], [max_candidates = 64], [max_edits = 2],
    unlimited budget — the {!default} policy. *)

type t = {
  auto_apply : bool;
      (** attempt the suggested private-process adaptations (default
          [true]); with [false] outcomes carry analysis and suggestions
          only *)
  max_rounds : int;
      (** transitive-propagation bound for the whole-choreography
          pipeline (default 8) *)
  jobs : int;
      (** domain-pool size for per-partner fan-out and consistency
          sweeps; [0] (default) defers to
          [Chorev_parallel.Pool.default_size] ([--jobs] /
          [CHOREV_DOMAINS]). Results are structurally identical for
          every pool size. *)
  op_budget : Chorev_guard.Budget.spec;
      (** bound on each algebra step (classification, view, delta,
          re-check); budgets are minted per step inside pool tasks, so
          fuel-only budgets trip identically at every pool size
          (default: unlimited) *)
  round_budget : Chorev_guard.Budget.spec;
      (** bound on one whole partner pipeline; op budgets draw from its
          remaining fuel and the earlier deadline wins (default:
          unlimited) *)
  cancel : Chorev_guard.Budget.Cancel.t option;
      (** cooperative cancellation token shared by every budget minted
          from this config (default: [None]) *)
  repair : repair;
      (** self-healing policy for failed propagations (default
          {!repair_off}) *)
}

val default : t
(** [auto_apply = true], [max_rounds = 8], [jobs = 0],
    unlimited budgets, no cancellation token, [repair = repair_off]. *)

val with_repair :
  ?fuel:int -> ?max_candidates:int -> ?max_edits:int -> t -> t
(** Enable repair, optionally bounding the amendment search: [fuel]
    replaces the repair budget with a fuel-only spec; the other fields
    default to the current policy's values. *)

val with_budgets :
  ?op_budget:Chorev_guard.Budget.spec ->
  ?round_budget:Chorev_guard.Budget.spec ->
  ?cancel:Chorev_guard.Budget.Cancel.t ->
  t ->
  t
(** Per-request override helper (what the serving layer applies per
    request class): replaces only the given budget fields. *)

val budgeted : t -> bool
(** Could a budget trip? Holds when an op or round budget is finite, a
    cancellation token is set, or repair is enabled with a finite
    repair budget. [Evolution]'s step cache stands down when this
    holds: a reused step would silently skip the trip. *)
