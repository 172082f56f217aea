(** A fixed-size domain pool for fanning out independent work
    (per-pair consistency checks, per-partner propagation rounds,
    workload sweeps) across OCaml 5 domains.

    Design constraints, in order:

    - {b Determinism.} [map] preserves input order, so parallel runs
      return values structurally equal to sequential ones. Tasks must be pure up to
      the domain-local caches of the lower layers (formula hash-consing
      and simplification memoization are per-domain; automata handed to
      several domains should be passed through {!Chorev_afsa.Afsa.copy}
      so each domain builds its own lazy CSRs).
    - {b Zero-cost sequential path.} A pool of size 1 (the default when
      neither [CHOREV_DOMAINS] nor [--jobs] nor {!set_default_size}
      says otherwise) never spawns a domain and [map] is literally
      [List.map].
    - {b No nested parallelism.} A [map] issued from inside a pool task
      runs sequentially in that task's domain, so composed layers
      (evolution over consistency) cannot deadlock the pool.

    Observability: each executed chunk runs inside a [parallel.chunk]
    span tagged with a [domain] attribute; the caller's ambient sink is
    propagated to worker domains behind a lock (see
    {!Chorev_obs.Sink.synchronized}). Metrics:
    [parallel.pool.{tasks,items}], the occupancy histogram
    [parallel.pool.occupancy], and per-domain task counters
    [parallel.pool.domainN.tasks]. *)

type t

val sequential : t
(** The size-1 pool: no domains, [map] = [List.map]. *)

val create : int -> t
(** [create n] spawns [n - 1] worker domains (the calling domain is the
    [n]-th worker while a [map] is in flight). [n <= 1] returns
    {!sequential}. Pools are cheap to keep around and expensive to
    create; prefer {!sized}. *)

val sized : int -> t
(** Process-wide pool registry: [sized n] returns the cached pool of
    size [n], creating it on first use. All pools are shut down at
    process exit. *)

val size : t -> int

val shutdown : t -> unit
(** Terminate the worker domains (idempotent). The pool must be idle. *)

val default_size : unit -> int
(** Size used when [map] is called without [?pool]: the last
    {!set_default_size} if any, else the [CHOREV_DOMAINS] environment
    variable, else 1 (sequential). *)

val set_default_size : int -> unit
(** Set the process-wide default size (what the [--jobs N] CLI flag
    does). Clamped to at least 1. *)

val default : unit -> t
(** [sized (default_size ())]. *)

val map : ?pool:t -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map. Work is split into contiguous chunks
    (several per domain, to absorb imbalance); the calling domain
    executes chunks alongside the workers. The first exception raised
    by any task is re-raised in the caller after the batch drains.
    Without [?pool], uses {!default}. *)

val in_worker : unit -> bool
(** Is the current domain executing a pool task? (Nested [map]s check
    this to fall back to sequential execution.) *)
