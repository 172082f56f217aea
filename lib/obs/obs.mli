(** The ambient tracing context: nested spans emitted to the currently
    installed {!Sink.t}.

    Tracing is disabled by default; {!span} then calls its body
    directly (one load-and-branch of overhead), so instrumentation is
    safe on hot paths. A sink is installed globally ({!set_sink}, used
    by the CLI flags) or for the dynamic extent of one computation
    ({!with_sink}).

    Spans nest: the span opened most recently on this execution path is
    the parent of the next one. IDs are unique per process and the
    parent/depth fields of {!Sink.span} reconstruct the tree. *)

val enabled : unit -> bool
(** Is a non-silent sink installed? *)

val set_sink : Sink.t -> unit
(** Install [s] as the ambient sink. Installing {!Sink.silent} turns
    tracing off. *)

val current_sink : unit -> Sink.t

val with_sink : Sink.t -> (unit -> 'a) -> 'a
(** [with_sink s f] installs [s], runs [f ()], restores the previous
    sink (also on exception). *)

val span : ?attrs:(string * Sink.value) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] inside a span named [name]. When tracing is
    disabled this is just [f ()]. *)
