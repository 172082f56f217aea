(** ε-closure and ε-elimination over the automaton's ε-closure CSR.
    Annotations of states merged along ε-paths combine by conjunction. *)

val closure : Afsa.t -> Afsa.ISet.t -> Afsa.ISet.t

val closure_of : Afsa.t -> int -> Afsa.ISet.t
(** A state outside the automaton closes to itself. *)

val eliminate : ?budget:Chorev_guard.Budget.t -> Afsa.t -> Afsa.t
(** Remove all ε-transitions, preserving the language; unreachable
    states are dropped. An ε-free input is returned unchanged (and so
    keeps any unreachable states). Ticks [budget] once per state. *)
