(** Deliberately naive alternatives to DESIGN.md's semantic decisions,
    kept so tests and benches can demonstrate the decisions are
    load-bearing. Not part of the recommended API. *)

val analyze_least_fixpoint : Afsa.t -> bool
(** Least-fixpoint emptiness: wrongly rejects mutually-supporting
    loops (the Fig. 6 tracking loop). Returns non-emptiness. *)

val is_empty_least_fixpoint : Afsa.t -> bool

val minimize_ignoring_annotations : Afsa.t -> Afsa.t
(** Merges states with different obligations — breaks the Fig. 16
    verdict. *)

val tau_hidden_false : observer:string -> Afsa.t -> Afsa.t
(** Views substituting hidden variables with [false] — kills every
    protocol with multi-party obligations. *)

(** {1 Seed reference implementations}

    The original (pre-index) implementations of the algebra, kept
    verbatim as differential-testing oracles for the optimized
    operations. Slow on purpose; not part of the recommended API. *)

val product_ref : Product.spec -> Afsa.t -> Afsa.t -> Afsa.t
(** Recursive Map-based product sweeping the full alphabet per state.
    May overflow the stack on very deep products. *)

val intersect_ref : Afsa.t -> Afsa.t -> Afsa.t
val difference_ref : Afsa.t -> Afsa.t -> Afsa.t
(** Materializes the completed complement of the right argument. *)

val union_ref : Afsa.t -> Afsa.t -> Afsa.t
(** Materializes both completions and the full total product. *)

val analyze_ref : Afsa.t -> Afsa.ISet.t * bool * int
(** Seed emptiness fixpoint, rebuilding the reverse-edge table every
    iteration: [(sat, nonempty, iterations)], same iteration-counting
    convention as {!Emptiness.analyze}. *)

val minimize_ref : Afsa.t -> Afsa.t
(** The pre-rewrite minimization (list/Hashtbl Hopcroft, string class
    keys, unconditional determinize + double renumbering), kept
    verbatim as the oracle for the refinable-partition implementation:
    [Minimize.minimize a] must be structurally equal to
    [minimize_ref a] on every input. *)

(** {1 Map-shaped kernel references}

    The map-based ε-elimination and subset construction that ran next
    to the array kernels until those became the only implementation,
    kept as their oracles. Their closures and rows come from the
    accessors (naive ε-walks over {!Afsa.step}, rows from
    {!Afsa.out_edges}), never from the closure CSR or the rows the
    kernels walk. Same discovery order and
    budget ticks as the kernels, so results are structurally equal and
    fuel-bounded outcomes identical. *)

val eliminate_ref : ?budget:Chorev_guard.Budget.t -> Afsa.t -> Afsa.t
(** The map-shaped ε-elimination (each closure a naive walk over
    {!Afsa.step}, rows from {!Afsa.out_edges}): the oracle for
    {!Epsilon.eliminate}, which must be structurally equal to it and
    tick the same fuel — one unit per state. *)

val determinize_ref : ?budget:Chorev_guard.Budget.t -> Afsa.t -> Afsa.t
(** The map-shaped subset construction ([ISet.t]-keyed subsets) over
    {!eliminate_ref}: the oracle for {!Determinize.determinize}, which
    must be structurally equal to it and tick the same fuel — one unit
    per state of the ε-elimination plus one per discovered subset. *)
