(** Causal rollback of a half-propagated change (DESIGN.md §14).

    When amendment fails mid-protocol, every party the change causally
    reached is restored to its pre-change snapshot and every other
    party is left untouched. The cone is computed from the delivery
    history; the restore is the [rollback] kind of {!Chorev_wal.Run}
    (one durable record per committed restore, then a seal), so a
    crash in the middle resumes byte-identically via {!resume}.

    Deliberately below the choreography layer: parties are names,
    snapshots are sexp strings, the restore itself is a caller
    callback. *)

type edge = {
  at : int;  (** delivery tick *)
  src : string;
  dst : string;
}

val cone : origin:string -> edges:edge list -> string list
(** Which parties the change reached: time-ordered BFS — a party joins
    the cone when it processes a message from an already-contaminated
    party. [origin] first, then discovery order; deterministic (edges
    are sorted by [(at, src, dst)] first). *)

type plan = {
  owner : string;  (** the change originator *)
  cone : string list;  (** restore order, [owner] first *)
  prelude : string;
      (** rendered output of the interrupted run, replayed verbatim on
          resume for byte-identical output *)
  pre : (string * string) list;  (** cone party → pre-change sexp *)
  state : (string * string) list;  (** every party → post-run sexp *)
}

type record =
  | Restored of string
  | Sealed of { digest : string }
      (** digest of {!final_state}, checked by {!load} *)

module Kind :
  Chorev_wal.Run.KIND with type plan = plan and type record = record
(** The [rollback] codec. *)

val final_state : plan -> (string * string) list
(** Every party's sexp once the cone is restored: [state] with [pre]
    laid over it, in [state] order. *)

type t

val start : ?crash_after:int -> dir:string -> plan -> (t, string) result
(** Open a fresh rollback run in [dir]: the plan (snapshots and
    prelude) is durable before this returns. [Error] if [dir] already
    holds a run. [crash_after] is the
    {!Chorev_wal.Run.Simulated_crash} hook. *)

val restore_all : t -> restore:(party:string -> pre:string -> unit) -> unit
(** Restore the cone in order through [restore], committing one record
    per restore (the [repair.rolled_back] counter ticks with it), then
    seal. Runs under a [repair.rollback] span. *)

val restore_inline :
  owner:string ->
  cone:(string * string) list ->
  restore:(party:string -> pre:string -> unit) ->
  unit
(** Journal-less variant for embedded drivers: restore each
    [(party, pre-sexp)] pair under the same span and counter, with no
    durability. *)

type loaded = {
  plan : plan;
  digest : string;
  records : record list;
  sealed : bool;
  torn : bool;
  valid_bytes : int;
}

val restored : loaded -> string list
(** Committed restores, in journal order. *)

val load : dir:string -> (loaded, string) result
(** {!Chorev_wal.Run} load, plus the seal's digest check. *)

val resume :
  ?crash_after:int ->
  dir:string ->
  restore:(party:string -> pre:string -> unit) ->
  unit ->
  (loaded, string) result
(** Finish an interrupted rollback: re-apply {e every} cone restore
    (idempotent overwrite — pre-crash restores died with the process),
    journal only the missing ones, seal. The caller rebuilds the model
    from {!final_state} and re-prints [plan.prelude] for byte-identical
    output. *)
