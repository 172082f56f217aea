(** The multi-tenant choreography store behind [chorev serve].

    Tenants (one evolving choreography each, keyed by name) are spread
    over [shards] hash shards; each shard's mutex guards the models and
    per-tenant {!Chorev_choreography.Evolution.Cache} step caches
    inside it, so requests for different tenants proceed concurrently
    while a tenant's own history stays strictly ordered. A single
    {!Chorev_discovery.Registry} (behind its own lock) spans all
    shards: every party's public process is registered under
    ["tenant/party"], interned and fingerprint-deduped across tenants,
    and its registry {e version} counts the structural changes the
    party's public went through — which is what [migrate-status]
    reports.

    With a [journal_root], every tenant is a [tenant] run of
    {!Chorev_wal.Run} in [<root>/<tenant>/]: its plan is the
    registration (committed atomically, so a concurrent request or a
    recovery scan never observes a half-registered tenant) and each
    publish commits one record. Every evolution is an [evolve] run
    ({!Chorev_journal.Evolve}) in its own [evolve-NNNNNN]
    subdirectory. {!recover} rebuilds the whole store from such a
    root, byte-identically: registrations are reloaded and each
    evolution — including one interrupted mid-run — is replayed or
    finished through {!Chorev_journal.Evolve.resume}.

    Determinism contract (what the serve golden tests check): every
    result is a pure function of the per-tenant request history and the
    request configs — independent of shard count, pool size and
    cross-tenant interleaving. The registry's per-name version
    sequences depend only on that name's history; version numbers never
    race. *)

type t

val create : ?shards:int -> ?journal_root:string -> unit -> t
(** Default 8 shards. With [journal_root] (created if missing — the
    root must pass {!Chorev_wal.Dir.validate_root}) the store is
    durable. @raise Invalid_argument if the root is unusable. *)

val recover :
  ?shards:int ->
  ?config:Chorev_config.Config.t ->
  journal_root:string ->
  unit ->
  (t * int, string) result
(** Rebuild a durable store from its journal root; returns the store
    and the number of tenants recovered. Unfinished evolutions are
    completed (under [config], default {!Chorev_config.Config.default})
    exactly as {!Chorev_journal.Evolve.resume} would. Directories
    without a plan (a registration or evolution that never committed)
    are skipped; a damaged run is an [Error] naming its file.
    @raise Invalid_argument if the root is unusable. *)

val count : t -> int
val exists : t -> string -> bool

val registry : t -> Chorev_discovery.Registry.t
(** The shared registry (callers must treat it as read-only; writes
    race the store's own lock discipline). *)

val register :
  t ->
  string ->
  processes:Chorev_bpel.Process.t list ->
  (Wire.body, Wire.error) result
(** Admit a tenant: validate the model ([`Invalid_model] carries the
    rendered issues), publish its journal directory (durable stores),
    and advertise every party's public in the registry (version 1 for
    fresh names). *)

val evolve :
  t ->
  config:Chorev_config.Config.t ->
  ?crash_after:int ->
  string ->
  owner:string ->
  changed:Chorev_bpel.Process.t ->
  (Wire.body, Wire.error) result
(** Run one controlled evolution of the tenant under [config] (the
    per-request budgets live in it). Durable stores journal the run
    round-by-round; [crash_after] is the kill-and-restart test hook
    ({!Chorev_wal.Run.Simulated_crash}). On success the tenant's model,
    consistency verdict and registry versions advance; the returned
    [Evolved] body is byte-identical to what
    {!Chorev_choreography.Evolution.run} yields under the same config,
    durable or not. *)

val query : t -> string -> (Wire.body, Wire.error) result
(** Current parties, consistency verdict, model digest and evolution
    count — no algebra, just a shard-locked read. *)

val migrate_status : t -> string -> (Wire.body, Wire.error) result
(** Per-party registry status: stable service id, public-process
    version (Sec. 8 version coexistence — the version a migrating
    instance would be pinned to), plus the real population counters
    ([running] instances, live [schemas]) from the {!Parties} stores. *)

val publish :
  t ->
  string ->
  party:string ->
  instances:int ->
  seed:int ->
  (Wire.body, Wire.error) result
(** Start a seeded instance population on [party]'s current schema
    version and batch-migrate every running instance onto the model's
    current public ({!Parties.publish}). Durable stores commit the
    publish to the tenant run {e before} applying it, so recovery
    replays it at the same point of the evolution history (the [after]
    cursor) and rebuilds the identical population. *)

val cache_totals : t -> (string * int) list
(** Aggregated hit/miss counters of all tenant evolution caches,
    summed across shards (for stats/bench reporting). *)
