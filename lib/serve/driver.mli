(** Deterministic workload scripts, the sequential oracle and the
    replay driver behind [chorev serve --gen-script/--oracle/--replay]
    and the [scale_serve] bench rows.

    A {e script} is a list of wire request lines. {!gen_script} derives
    one deterministically from a seed: [tenants] registrations of
    generated two-party choreographies followed by [requests] mixed
    operations (queries, migrate-status probes and evolutions across
    the request classes). Scripts contain no [Stats] ops, so expected
    responses carry no wall-clock data.

    {!oracle} computes the expected response lines {e without the
    server}: a direct sequential interpretation over
    {!Chorev_choreography.Evolution.run} and a private registry —
    an independent scheduler-free code path. A server at any pool
    size, shard count or batching must produce byte-identical lines
    for a shed-free configuration (the CI smoke diff and the golden
    tests); shed responses are the only permitted divergence, and
    only under an over-committed queue. *)

val gen_script :
  ?tenants:int -> ?requests:int -> ?seed:int -> unit -> string list
(** Defaults: 16 tenants, 128 requests, seed 42. Request ids are
    1-based stream positions. *)

val oracle : string list -> string list
(** Expected response lines (one per script line that is not
    {!Wire.blank}, order preserved), via the direct sequential path.
    Malformed lines yield the same [bad-request] responses the server
    would emit. *)

type report = {
  requests : int;
  tenants : int;
  shed : int;
  errors : int;
  elapsed_s : float;
  throughput : float;  (** requests per second *)
  percentiles : (string * (float * float * float)) list;
      (** per-op (p50, p95, p99), microseconds *)
}

val replay : ?options:Server.options -> string list -> report
(** Push a script's non-blank lines through a fresh server in
    [Server.options.batch]-sized cycles, as pipe mode does, and
    measure: end-to-end wall time, throughput, shed and error counts,
    per-op tail latency. *)

val pp_report : Format.formatter -> report -> unit

val report_counters : report -> (string * int) list
(** The report flattened to [(name, int)] counters (latencies in
    microseconds) for the bench JSON. *)
