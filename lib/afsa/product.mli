(** Generic ε-tolerant product over pair states — the one kernel behind
    intersection (Def. 3), difference (Def. 4) and union (Sec. 5.2,
    step 2). It is a worklist over the two automata's CSR rows;
    {!Ablation.product_ref} is the seed's map-based oracle. *)

type spec = {
  alphabet : Label.t list;
  final : int * int -> bool;
  combine_ann :
    Chorev_formula.Syntax.t ->
    Chorev_formula.Syntax.t ->
    Chorev_formula.Syntax.t;
}

val sink_of : Afsa.t -> int
(** A state id outside the automaton's state space, for use as a
    virtual completion sink in {!run}. *)

val run :
  ?budget:Chorev_guard.Budget.t ->
  ?sink_a:int ->
  ?sink_b:int ->
  spec ->
  Afsa.t ->
  Afsa.t ->
  Afsa.t
(** The reachable product, pairs numbered in discovery (BFS) order from
    [(start a, start b)] = 0. Each pair emits the left side's lone
    ε-moves, then the symbols of [spec.alphabet] in ascending order,
    then the right side's lone ε-moves. A side given a sink is
    completed over [spec.alphabet] without materializing the |Q|·|Σ|
    edges of {!Complete.complete}: where only the other side moves, it
    moves to (or stays in) the sink, which traps and carries annotation
    [True]; [spec.final] and [spec.combine_ann] see the sink as a
    regular state. A completed side must be ε-free (determinize it
    first), else [Invalid_argument]. A pair with both sides in their
    sinks is never built. Ticks [?budget] (default: the ambient
    {!Chorev_guard.Budget}) once per explored pair. *)
