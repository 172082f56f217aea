(** Annotated Finite State Automata — Definition 2 of the paper:
    [(Q, Σ, Δ, q0, F, QA)]. A state's annotation constrains which
    outgoing messages are mandatory; states without an entry carry
    [true]. The representation is exposed for the algebra modules; use
    the constructors and accessors below rather than building records
    by hand. *)

module F = Chorev_formula.Syntax
module ISet : Set.S with type elt = int
module IMap : Map.S with type key = int

type packed
(** The compiled {!Packed} form, opaque here; read it through
    {!Packed.get}. *)

type t = {
  states : ISet.t;
  alphabet : Label.Set.t;  (** contains every edge label *)
  delta : ISet.t Sym.Map.t IMap.t;  (** state → symbol → targets *)
  start : int;
  finals : ISet.t;
  ann : F.t IMap.t;  (** absent entry = [True] *)
  mutable pack : packed option;
      (** the lazily-compiled {!Packed} form, the automaton's one
          derived form; never set by hand, always invalidated by the
          modifiers below *)
  mutable fp : string option;
      (** cached structural fingerprint; derived data only — computed
          and read through {!Fingerprint}, invalidated by the modifiers
          below, preserved by {!copy} (the structure is shared) *)
}

(** {1 Construction} *)

val make :
  ?alphabet:Label.t list ->
  start:int ->
  finals:int list ->
  edges:(int * Sym.t * int) list ->
  ?ann:(int * F.t) list ->
  unit ->
  t
(** States are inferred from the arguments; the alphabet from the edge
    labels unioned with [alphabet]; annotations are simplified and
    [True] entries dropped. *)

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
val out_symbols : t -> int -> Label.Set.t
val edges : t -> (int * Sym.t * int) list
val num_edges : t -> int
val has_eps : t -> bool

val is_deterministic : t -> bool
(** No ε-transition and at most one target per (state, symbol). *)

(** {1 Packed (CSR) form}

    The flat compilation of an automaton, and its one derived form:
    every algebra kernel (the products, determinization, ε-elimination,
    emptiness, completion and minimization), reachability, trimming and
    the ε-closure queries run over it; each operation has this one
    implementation (the map-shaped references live in {!Ablation}).
    Dense state numbering, proper out-edges as one CSR sorted by
    (symbol id, target) per row, a separate ε-adjacency CSR, finals and
    annotation-nontrivial flags as bitsets. Compiled once per automaton
    and cached on the lazy [pack] slot, so every structural modifier
    invalidates it and [delta] stays the single source of truth. *)
module Packed : sig
  type afsa
  (** := the automaton type [t] of the enclosing module. *)

  type t = {
    n : int;  (** dense state count *)
    state_ids : int array;  (** dense → original id, strictly ascending *)
    start : int;  (** dense index of the start state *)
    finals : Bitset.t;  (** over dense indexes *)
    syms : Sym.t array;  (** the alphabet, ascending ([Sym.Map] order) *)
    row_off : int array;  (** n+1: proper out-row extents per dense state *)
    row_sym : int array;  (** per edge: symbol id; rows sorted by (sym, tgt) *)
    row_tgt : int array;  (** per edge: dense target *)
    eps_off : int array;  (** n+1: ε out-row extents *)
    eps_tgt : int array;  (** per ε-edge: dense target, sorted within row *)
    ann : F.t array;  (** per dense state; [True] when absent *)
    ann_nontrivial : Bitset.t;  (** states with a non-[True] annotation *)
    mutable preds : (int array * int array) option;
    mutable eps_cl_csr : (int array * int array) option;
  }

  val get : afsa -> t
  (** The packed form, compiled on first use and cached on the
      automaton. *)

  val dense : t -> int -> int
  (** Dense index of an original state id; [-1] when it is not a
      state. *)

  val preds_csr : t -> int array * int array
  (** Distinct-predecessor CSR [(off, src)] over proper and ε edges,
      built once per packed form on first call. *)

  val reach : t -> int list -> Bitset.t
  (** Dense states reachable from the dense seeds over proper and ε
      edges. *)

  val coreach : t -> Bitset.t
  (** Dense states from which a final state is reachable, over
      {!preds_csr}. *)

  val closure_csr : int -> int array -> int array -> int array * int array
  (** [closure_csr n eps_off eps_tgt]: the ε-closure CSR [(off, tgt)]
      of the ε-rows [(eps_off, eps_tgt)] over states [0..n-1]; row [q]
      is the sorted closure of [q], [q] included. One int-only
      SCC-collapsed Tarjan pass, the one ε-closure algorithm. *)

  val eps_closure_csr : t -> int array * int array
  (** {!closure_csr} of the pack, cached on it. *)
end
with type afsa := t

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
    plain language. Both trims walk the pack and return their argument
    itself, pack included, when they drop nothing. *)

val renumber : t -> t * int IMap.t
(** Dense renumbering: the start becomes 0, the other states follow in
    ascending order. Returns the old→new map. *)

(** {1 Modification} *)

val copy : t -> t
(** Same automaton, private (empty) pack slot. The persistent fields
    are shared. Use one copy per parallel task when several domains
    read the same automaton: the pack and its lazy CSRs are filled in
    place, and a private handle keeps each domain's builds local. An
    already-computed fingerprint is kept (it is an immutable string
    describing the shared structure). *)

val add_edge : t -> int * Sym.t * int -> t

val add_edges : t -> (int * Sym.t * int) list -> t
(** Bulk {!add_edge}: one new record for the whole batch. *)
val set_annotation : t -> int -> F.t -> t
val clear_annotations : t -> t
val set_finals : t -> int list -> t
val widen_alphabet : t -> Label.t list -> t

val structurally_equal : t -> t -> bool
(** Same states, alphabet, start, finals, edges and annotations. *)
