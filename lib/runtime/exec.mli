(** Synchronous choreography execution: a step on [S#R#msg] is a joint
    move of sender and receiver (Sec. 3.2's communication model). Used
    to validate consistency ⇔ deadlock-freedom operationally. *)

module Afsa = Chorev_afsa.Afsa
module Label = Chorev_afsa.Label

type party_state = { party : string; automaton : Afsa.t; state : int }
type config = party_state list
type status = Completed | Deadlock | Running
type system

val make : (string * Afsa.t) list -> system
val initial : system -> config
val enabled : config -> (Label.t * config) list
val completed : config -> bool
val status : config -> status
val key : config -> (string * int) list

type exploration = {
  configurations : int;
  deadlocks : config list;
  completions : int;
  truncated : bool;
}

val explore : ?max_configs:int -> system -> exploration
(** Exhaustive BFS over the joint state space (default bound
    100_000). *)

val can_complete : ?max_configs:int -> system -> bool
val deadlock_free : ?max_configs:int -> system -> bool

type run = { trace : Label.t list; outcome : status }

val random_run :
  ?rng:Random.State.t -> ?max_steps:int -> seed:int -> system -> run
(** Deterministic per seed. [?rng] overrides the seed-derived state:
    pass a caller-owned [Random.State] to thread one stream through
    composed runs (each domain of a pool fan-out must own its own
    state). *)
