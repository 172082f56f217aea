(** The one configuration record of the evolution stack: one value
    configures the per-partner engine ([Propagate.Engine.run]), the
    whole-choreography pipeline ([Choreography.Evolution]), the
    journaled driver and the serving layer's per-request variants,
    none of which re-declares it. *)

type t = {
  auto_apply : bool;
      (** attempt the suggested private-process adaptations (default
          [true]); with [false] outcomes carry analysis and suggestions
          only *)
  op_budget : Chorev_guard.Budget.spec;
      (** bound on each algebra step (classification, view, delta,
          re-check); budgets are minted per step inside pool tasks, so
          fuel-only budgets trip identically at every pool size
          (default: unlimited) *)
  round_budget : Chorev_guard.Budget.spec;
      (** bound on one whole partner pipeline; op budgets draw from its
          remaining fuel and the earlier deadline wins (default:
          unlimited) *)
  repair : Chorev_guard.Budget.spec option;
      (** self-healing for failed propagations: [Some budget] attempts
          automatic partner amendment (and, in the simulator, causal
          rollback) when a propagation step fails, each amendment
          search bounded by [budget]; minted inside the pool task, so
          fuel-only budgets trip identically at every pool size
          (default [None]) *)
}

val default : t
(** [auto_apply = true], unlimited budgets, [repair = None]. *)

val with_repair : ?fuel:int -> t -> t
(** Enable repair: [fuel] makes the search budget a fuel-only spec;
    without it an enabled policy keeps its budget and a disabled one
    becomes unlimited. *)

val with_budgets :
  ?op_budget:Chorev_guard.Budget.spec ->
  ?round_budget:Chorev_guard.Budget.spec ->
  t ->
  t
(** Per-request override helper (what the serving layer applies per
    request class): replaces only the given budget fields. *)

val budgeted : t -> bool
(** Could a budget trip? Holds when an op or round budget is finite, or
    repair is enabled with a finite search budget. [Evolution]'s step
    cache stands down when this holds: a reused step would silently
    skip the trip. *)
