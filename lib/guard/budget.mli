(** Resource budgets for the aFSA algebra and the evolution pipeline.

    A budget bounds a computation two ways at once: a {e fuel} counter
    (deterministic — one unit per worklist iteration) and a wall-clock
    {e deadline}. Hot loops call {!tick} once per iteration; when
    either bound trips, the loop is
    unwound with {!Expired} and {!run} converts that into a typed
    [`Exceeded] result instead of a hang or a crash.

    The {!unlimited} budget is a physical singleton and {!tick} on it is
    a single pointer comparison, so un-budgeted callers pay nothing. *)

type reason = [ `Fuel | `Deadline ]

type info = {
  reason : reason;  (** which bound tripped *)
  spent : int;  (** fuel consumed up to the trip point *)
  elapsed_s : float;  (** wall time since the budget was created *)
}

exception Expired of info
(** Raised by {!tick} when a bound trips. Caught by {!run}; algebra ops
    let it propagate so the whole worklist unwinds at once. *)

type t

val unlimited : t
(** The no-op budget (physical singleton — never mutated). *)

val create : ?fuel:int -> ?timeout_s:float -> unit -> t
(** Fresh budget; omitted bounds are unbounded. [timeout_s] is measured
    from creation. *)

type spec = { fuel : int option; timeout_s : float option }
(** Declarative form carried in configs (a [spec] is immutable and
    reusable; a {!t} is single-use). *)

val spec_unlimited : spec
val spec_is_unlimited : spec -> bool

val of_spec : spec -> t
(** Mint a fresh budget from a spec. Returns {!unlimited} (the
    singleton) when the spec has no bounds. *)

val is_unlimited : t -> bool
val tick : t -> unit [@@inline]
(** Consume one unit of fuel and (amortized, every ~256 ticks) poll the
    deadline. @raise Expired when a bound trips. *)

val spent : t -> int
(** Fuel consumed so far. *)

val exceeded : t -> info option
(** [Some info] once the budget has tripped (it stays tripped). *)

val sub : t -> spec -> t
(** [sub parent spec] mints a child budget: fuel capped by both the
    spec and the parent's remaining fuel, deadline the earlier of the
    two. The child's spend is
    not reflected in the parent automatically — account it back with
    [charge parent (spent child)] once the child step finishes. *)

val charge : t -> int -> unit
(** Consume [n] fuel units at once (how a parent absorbs a child's
    spend). @raise Expired when the parent's bounds trip. *)

val ambient : unit -> t
(** The budget installed for the current domain ({!unlimited} when none
    is installed). Algebra ops default their [?budget] argument to
    this, so governance reaches code that does not thread budgets
    explicitly. *)

val with_ambient : t -> (unit -> 'a) -> 'a
(** Run [f] with [t] installed as the current domain's ambient budget,
    restoring the previous one afterwards (exception-safe). *)

val run : t -> (unit -> 'a) -> [ `Done of 'a | `Exceeded of info ]
(** [run b f] installs [b] as ambient, runs [f], and converts an
    {!Expired} unwind into [`Exceeded]. Fuel spent is recorded in the
    [guard.fuel_spent] counter; trips bump [guard.exceeded_total]. *)

val pp_reason : reason Fmt.t
val pp_info : info Fmt.t
