(** Minimization by Hopcroft partition refinement whose initial
    partition distinguishes finality and the simplified annotation —
    states with different mandatory obligations never merge. *)

val minimize : ?budget:Chorev_guard.Budget.t -> Afsa.t -> Afsa.t
(** Determinizes and completes internally; trims dead states; numbers
    states canonically (BFS in sorted-label order), so equal annotated
    languages yield structurally equal automata. *)

val canonical_renumber : Afsa.t -> Afsa.t * int Afsa.IMap.t
(** BFS renumbering from the start in sorted-label order; states
    unreachable from the start are dropped. Returns the old→new map
    like {!Afsa.renumber}. *)
