(** The request scheduler of [chorev serve].

    Requests are processed in {e cycles}: each cycle drains up to
    [batch] requests from the input, admits at most [queue_capacity]
    of them and sheds the rest with an explicit [`Overloaded] response
    — deadline-bearing request classes are shed earlier (at the
    [headroom] mark) because a request that would blow its declared
    deadline waiting in the queue is better rejected up front. Within
    a cycle:

    + registrations, [Stats] and requests naming unknown tenants are
      handled on the coordinator, in arrival order (registry ids are
      minted deterministically);
    + the remaining requests are grouped by tenant and the groups fan
      out over a {!Chorev_parallel.Pool} — one task per tenant, each
      group processed in arrival order;
    + responses are stitched back into arrival order.

    Because tenants are independent (see {!Tenant}) and per-request
    budgets are fuel-based, the full response stream is a pure function
    of the request stream and the options: identical at every pool
    size, which is what the serve golden tests and the CI smoke diff
    assert. Wall-clock only surfaces through [Stats] responses and
    {!stats}. *)

type options = {
  shards : int;  (** tenant-store shards (default 8) *)
  queue_capacity : int;  (** admissions per cycle (default 256) *)
  batch : int;  (** reads per cycle (default 256) *)
  headroom : int option;
      (** admission bound for deadline-bearing classes; [None]
          (default) means [queue_capacity] — no early shedding *)
  jobs : int;  (** pool size; [0] defers to
                   {!Chorev_parallel.Pool.default_size} *)
  journal_root : string option;  (** durable store root (default none) *)
  config : Chorev_config.Config.t;
      (** base per-request config; each request's class budgets are
          layered on top via {!Chorev_config.Config.with_budgets} *)
}

val default_options : options

type t

val create : ?options:options -> unit -> t
(** Fresh server (empty store, or recovered from
    [options.journal_root] when that root already holds tenants).
    @raise Invalid_argument if the root is unusable or holds a damaged
    run; the message names the file. *)

val recovered : t -> int
(** Tenants recovered from the journal root at startup (0 for a fresh
    or non-durable server). *)

val store : t -> Tenant.t

val cycle : t -> Wire.request list -> Wire.response list
(** One scheduler cycle over at most [batch] requests; responses in
    arrival order, one per request ([`Overloaded] for shed ones). *)

val handle : t -> Wire.request -> Wire.response
(** Single-request cycle (convenience for tests and embedding). *)

val run_pipe : t -> in_channel -> out_channel -> int
(** Pipe mode: read newline-delimited requests, cycle, write one
    response line per request (flushed per cycle) until EOF. Malformed
    lines get a [`Bad_request] response and don't kill the server; a
    line over {!Wire.max_line} is skipped without being held whole.
    Returns the number of requests served. *)

val stats_fields : t -> (string * Wire.Json.t) list
(** The [Stats] response body: tenants, registry size, request and
    shed counters, cycle count, queue-depth high-water mark, per-op
    latency percentiles (p50/p95/p99, microseconds) and the
    aggregated evolution-cache counters. *)

val percentile : float array -> float -> float
(** [percentile samples p] with [p] in [0,1] — nearest-rank on a
    sorted copy; 0 for an empty array. Exposed for the bench report. *)

val latencies_us : t -> (string * float array) list
(** Raw per-op latency samples (microseconds), for the bench report. *)
