(** Automatic amendment of a partner's private process after a failed
    propagation (DESIGN.md §14).

    The failed bilateral check's difference automaton is a
    counterexample; its shortest word (the witness,
    {!Chorev_propagate.Suggest.witness}) anchors a bounded queue of
    candidate edits — insert / relax (receive→pick, pick arm, switch
    branch) / delete / unroll, smallest edit first. Each candidate is
    re-verified with the same consistency decision procedure the
    engine uses. The whole search runs under one budget minted from
    the caller's spec, so it is fuel-deterministic across pool sizes
    and degrades to "unrepairable" rather than hanging. *)

val max_candidates : int
(** Bound on the candidate queue per failed step: 64. *)

type candidate = {
  ops : Chorev_change.Ops.t list;
      (** applied in order; a failing op skips the candidate *)
  cost : int;  (** number of primitive edits *)
  description : string;
}

type result = {
  repaired : (Chorev_bpel.Process.t * Chorev_afsa.Afsa.t) option;
      (** amended private process and its regenerated public process,
          when a candidate restored pairwise consistency *)
  attempts : int;  (** candidates actually verified *)
  fuel_spent : int;  (** fuel consumed by the search budget *)
  witness : Chorev_afsa.Label.t list option;
      (** the counterexample trace the candidates were anchored on;
          [None] when the delta was language-empty (nothing to anchor
          on — unrepairable) *)
  chosen : string option;  (** description of the winning candidate *)
  degraded : Chorev_guard.Degrade.t list;
      (** non-empty iff the search ran out of budget before exhausting
          the candidate queue *)
}

val candidates :
  direction:Chorev_propagate.Engine.direction ->
  Chorev_bpel.Process.t ->
  Chorev_afsa.Label.t list ->
  candidate list
(** The bounded queue for one witness, smallest edit first: cost-1
    candidates in witness-label order, then ordered pairs, truncated
    at {!max_candidates}. Deterministic in the process and witness.
    Exposed for tests and the bench. *)

val search :
  budget:Chorev_guard.Budget.spec ->
  direction:Chorev_propagate.Engine.direction ->
  partner_private:Chorev_bpel.Process.t ->
  view_new:Chorev_afsa.Afsa.t ->
  delta:Chorev_afsa.Afsa.t ->
  unit ->
  result
(** Run the amendment search for one failed bilateral check:
    [view_new] is what the partner must be consistent with (τ_P(A')),
    [delta] the difference automaton the witness is extracted from.
    The search budget is minted inside this call from [budget] —
    invoke it inside the pool task and fuel-only budgets trip
    identically at every pool size.
    Verification goes through [Chorev_cache.Memo.consistent] when the
    search budget is unlimited; a bounded search ticks its budget on
    every check instead.
    Bumps the [repair.attempts] / [repair.repaired] counters; spans
    [repair.amend] / [repair.queue]. *)

val repaired_process : result -> Chorev_bpel.Process.t option

val pp_result : Format.formatter -> result -> unit
