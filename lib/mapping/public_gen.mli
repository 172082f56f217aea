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

val nonterminating_cond : string -> bool
(** Is a while condition the paper's non-terminating idiom ("1 = 1" or
    "true", whitespace- and case-insensitive)? *)
