(** Public-process generation (Sec. 3.3): compile a private process
    into its public aFSA and mapping table by depth-first traversal of
    the block structure. Internal choices over sends annotate their
    entry state with the conjunctive mandatory formula; picks are the
    partner's (optional) choice. One pass then eliminates ε and numbers
    the reachable states in BFS order from the start, as the paper's
    figures do (theirs are 1-based). Generation ticks no fuel. *)

val generate :
  Chorev_bpel.Process.t -> Chorev_afsa.Afsa.t * Table.t

val public : Chorev_bpel.Process.t -> Chorev_afsa.Afsa.t
(** Just the aFSA. *)

val meets : Chorev_bpel.Process.t -> Chorev_afsa.Afsa.t -> bool
(** [meets p v]: is the plain language of [public p ∩ v] non-empty?
    Equal to [not (Emptiness.is_empty_plain (Ops.intersect (public p)
    v))], and decided without generating [public p]: it compiles [p] as
    {!generate} does and walks the product of the compiled ε-automaton
    with [v] on the fly, stopping at the first pair final on both
    sides. A label missing from [v]'s alphabet blocks, as in
    {!Chorev_afsa.Ops.intersect}. Ticks the ambient budget once per
    explored pair; opens the span [meets]; builds no automaton, so it
    does not count as a generation run. *)

val nonterminating_cond : string -> bool
(** Is a while condition the paper's non-terminating idiom ("1 = 1" or
    "true", whitespace- and case-insensitive)? *)
