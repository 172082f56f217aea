(** Annotated Finite State Automata — Definition 2 of the paper:
    [(Q, Σ, Δ, q0, F, QA)]. A state's annotation constrains which
    outgoing messages are mandatory; states without an entry carry
    [true].

    The automaton is one set of flat arrays over dense state indexes
    (a state's position in the ascending original ids): proper
    out-edges as one compressed sparse row (CSR) per state sorted by
    (symbol id, target), a separate ε CSR, finals and annotated states
    as bitsets. {!make} builds them and nothing writes them afterwards;
    the algebra's kernels read them directly, everyone else goes
    through the accessors, which speak original ids. *)

module F = Chorev_formula.Syntax
module ISet : Set.S with type elt = int
module IMap : Map.S with type key = int

type t = private {
  n : int;  (** state count, at least 1 (the start) *)
  state_ids : int array;  (** dense → original id, strictly ascending *)
  start : int;  (** dense index of the start state *)
  syms : Sym.t array;
      (** the alphabet as the symbol table: ascending, proper labels
          only; a symbol id is an index into it *)
  row_off : int array;  (** n+1: proper out-row extents per dense state *)
  row_sym : int array;  (** per edge: symbol id; rows sorted by (sym, tgt) *)
  row_tgt : int array;  (** per edge: dense target *)
  eps_off : int array;  (** n+1: ε out-row extents *)
  eps_tgt : int array;  (** per ε-edge: dense target, sorted within row *)
  finals : Bitset.t;  (** over dense indexes *)
  ann : F.t array;  (** per dense state; [True] when not annotated *)
  ann_nontrivial : Bitset.t;  (** states with a non-[True] annotation *)
  mutable preds : (int array * int array) option;
      (** {!preds_csr}, built on first call *)
  mutable eps_cl_csr : (int array * int array) option;
      (** {!eps_closure_csr}, built on first call *)
  mutable fp : string option;
      (** the structural fingerprint, through {!memo_fp} *)
}
(** The arrays are never written after construction. {!copy} shares
    them, resets the lazy CSRs and keeps [fp]. Every modifier returns
    an automaton without [fp]; those that leave the rows alone
    ({!clear_annotations}, {!set_finals}, {!widen_alphabet}) share
    them together with their lazy CSRs. {!widen_alphabet} with no new
    label returns its argument, as a trim that drops nothing does. *)

(** {1 Construction} *)

val make :
  ?alphabet:Label.t list ->
  start:int ->
  finals:int list ->
  edges:(int * Sym.t * int) list ->
  ?ann:(int * F.t) list ->
  unit ->
  t
(** States are the start, the finals, the edge endpoints and every
    annotated state; duplicate edges and finals collapse. The alphabet
    is [alphabet] plus the edge labels. Annotations are simplified and
    [True] entries dropped; for a state with several, the last non-[True]
    one wins. *)

val of_strings :
  ?alphabet:string list ->
  start:int ->
  finals:int list ->
  edges:(int * string * int) list ->
  ?ann:(int * F.t) list ->
  unit ->
  t
(** Edges as [(s, "A#B#msg", t)], with [""] for ε. *)

(** {1 Queries} *)

val states : t -> int list
(** Ascending. *)

val num_states : t -> int
val alphabet : t -> Label.t list
val start : t -> int
val finals : t -> int list
val is_final : t -> int -> bool

val annotation : t -> int -> F.t
(** [True] when the state has no entry. *)

val annotations : t -> (int * F.t) list
val has_annotations : t -> bool

val step : t -> int -> Sym.t -> ISet.t
(** Successors on one symbol. *)

val out_edges : t -> int -> (Sym.t * int) list
(** ε-targets first, then [(symbol, target)] ascending. *)

val out_symbols : t -> int -> Label.Set.t

val edges : t -> (int * Sym.t * int) list
(** Sources ascending, each in {!out_edges} order. *)

val num_edges : t -> int
val has_eps : t -> bool

val is_deterministic : t -> bool
(** No ε-transition and at most one target per (state, symbol). *)

(** {1 Dense walks}

    Over dense indexes; each is the one implementation of its walk. *)

val dense : t -> int -> int
(** Dense index of an original state id; [-1] when it is not a
    state. *)

val preds_csr : t -> int array * int array
(** Distinct-predecessor CSR [(off, src)] over proper and ε edges,
    built once per automaton on first call. *)

val reach : t -> int list -> Bitset.t
(** Dense states reachable from the dense seeds over proper and ε
    edges. *)

val coreach : t -> Bitset.t
(** Dense states from which a final state is reachable, over
    {!preds_csr}. *)

val closure_csr : int -> int array -> int array -> int array * int array
(** [closure_csr n eps_off eps_tgt]: the ε-closure CSR [(off, tgt)] of
    the ε-rows [(eps_off, eps_tgt)] over states [0..n-1]; row [q] is
    the sorted closure of [q], [q] included. One int-only
    SCC-collapsed Tarjan pass, the one ε-closure algorithm. *)

val eps_closure_csr : t -> int array * int array
(** {!closure_csr} of the automaton's ε-rows, built once on first
    call. *)

(** {1 Reachability and trimming} *)

val reachable_from : t -> int -> ISet.t
(** States reachable over any symbol, ε included; [{q}] when [q] is not
    a state. *)

val coreachable : t -> ISet.t
(** States from which a final state is reachable over any symbol. *)

val trim_unreachable : t -> t
(** Drop states unreachable from the start. *)

val trim : t -> t
(** Drop unreachable and dead states (start always kept); preserves the
    plain language. Both trims return their argument itself when they
    drop nothing. *)

val renumber : t -> t * int IMap.t
(** Dense renumbering: the start becomes 0, the other states follow in
    ascending order. Returns the old→new map. *)

(** {1 Modification} *)

val copy : t -> t
(** Same automaton, arrays shared, empty lazy CSRs. Use one copy per
    parallel task when several domains read the same automaton: the
    lazy CSRs are filled in place, and a private handle keeps each
    domain's builds local. An already-computed fingerprint is kept (it
    is an immutable string describing the shared structure). *)

val add_edge : t -> int * Sym.t * int -> t

val add_edges : t -> (int * Sym.t * int) list -> t
(** Bulk {!add_edge}: one new automaton for the whole batch. *)

val set_annotation : t -> int -> F.t -> t
(** [q] becomes a state if it is not one; a [True] annotation removes
    its entry. *)

val clear_annotations : t -> t

val set_finals : t -> int list -> t
(** @raise Invalid_argument when a listed id is not a state. *)

val widen_alphabet : t -> Label.t list -> t

val memo_fp : t -> (t -> string) -> string
(** [memo_fp a compute]: [a]'s fingerprint, computed by [compute] on
    first call and cached in [fp]. The one writer of [fp], for
    {!Fingerprint}. *)

val structurally_equal : t -> t -> bool
(** Same states, alphabet, start, finals, edges and annotations. *)
