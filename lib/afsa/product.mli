(** Generic ε-tolerant product over pair states — the common core of
    intersection (Def. 3) and difference (Def. 4): synchronize on
    shared labels, interleave ε-moves, combine annotations with the
    given operator. Each construction below is one worklist kernel
    over the packed CSR form ({!Afsa.Packed}); {!Ablation.product_ref}
    is the seed's map-based oracle. *)

module PMap : Map.S with type key = int * int

(** All constructions tick their [?budget] (default: the ambient
    {!Chorev_guard.Budget}) once per explored pair state and unwind
    with [Chorev_guard.Budget.Expired] when it trips. *)

type spec = {
  alphabet : Label.t list;
  final : int * int -> bool;
  combine_ann :
    Chorev_formula.Syntax.t ->
    Chorev_formula.Syntax.t ->
    Chorev_formula.Syntax.t;
}

val run :
  ?budget:Chorev_guard.Budget.t -> spec -> Afsa.t -> Afsa.t -> Afsa.t * int PMap.t
(** Reachable part only; returns the pair ↦ product-state map. *)

val sink_of : Afsa.t -> int
(** A state id guaranteed outside the automaton's state space, for use
    as a virtual completion sink below. *)

val run_right_total :
  ?budget:Chorev_guard.Budget.t ->
  spec ->
  sink:int ->
  Afsa.t ->
  Afsa.t ->
  Afsa.t * int PMap.t
(** Like {!run}, but the right automaton is implicitly completed over
    [spec.alphabet]: a missing (state, proper symbol) pair moves to
    [sink], which traps and carries annotation [True]. The right
    automaton must be ε-free. Avoids materializing the |Q|·|Σ| sink
    edges of {!Complete.complete} — this is what makes difference on
    large alphabets cheap. *)

val run_both_total :
  ?budget:Chorev_guard.Budget.t ->
  spec ->
  sink_a:int ->
  sink_b:int ->
  Afsa.t ->
  Afsa.t ->
  Afsa.t * int PMap.t
(** Both sides implicitly completed over [spec.alphabet]; both must be
    ε-free. Edges where both sides fall into their sink are pruned —
    such pairs can never reach a final state, so this is exactly what a
    subsequent {!Afsa.trim} would remove. *)
