(** Batched instance migration at scale (DESIGN.md §13).

    Pushes every live instance of a {!Chorev_migration.Versions} store
    through a schema change in fixed-size batches: compliance verdicts
    fan out over the domain pool under per-verdict budgets, distinct
    traces are classified once through a fingerprint-keyed LRU, and a
    batch that exceeds its budget is {e deferred} — left entirely in
    place — rather than half-migrated. Each distinct (source version,
    trace) of a run is keyed and rendered once, and the report digest
    takes every rendering from the run's items. The whole run is
    deterministic: the same plan yields byte-identical reports at any
    pool size, and a journaled run killed between batches resumes to
    the same bytes.

    Spans: [migrate.prepare], one [migrate.batch] per batch (attribute
    [index]) and [migrate.report]. *)

module Afsa = Chorev_afsa.Afsa
module Instance = Chorev_migration.Instance
module Versions = Chorev_migration.Versions
module Compliance = Chorev_migration.Compliance
module Pool = Chorev_parallel.Pool

(** {1 Options and reports} *)

type options = {
  batch_size : int;
  batch_fuel : int option;
      (** fuel bound minted per verdict task; also the cap on a batch's
          summed fresh-verdict spend. Tripping either defers the batch.
          [None] = unbudgeted, nothing defers. *)
  memo_capacity : int;  (** verdict LRU capacity (clamped to >= 1) *)
  pool : Pool.t option;  (** [None] = the process-default pool *)
}

val default_options : options
(** batch 1024, no fuel bound, memo 65536, default pool. *)

type batch = {
  index : int;
  size : int;
  migrated : int;
  finishing : int;
  stuck : int;
  fresh : int;  (** distinct verdicts computed by this batch *)
  hits : int;  (** memo hits during the lookup pass *)
  fuel : int;  (** fuel spent on this batch's fresh verdicts *)
  deferred : bool;
}

type report = {
  to_version : int;
  total : int;
  batch_size : int;
  batches : batch list;  (** ascending by index *)
  by_version : (int * int) list;  (** final live counts, newest first *)
  digest : string;  (** over the final instance→version assignment *)
}

val totals : report -> int * int * int * int * int * int
(** (migrated, finishing, stuck, fresh, hits, fuel) summed over
    non-deferred and deferred batches alike. *)

val deferred_batches : report -> batch list

val pp_report : Format.formatter -> report -> unit
(** Stable ASCII rendering — no wall-clock, no pool size; the
    byte-identity anchor for pool-invariance and resume tests. *)

val final_digest : Versions.t -> string
(** Hex digest over every live instance's (version, id, trace) in
    admission order. A run's [digest] equals [final_digest] of the store
    it leaves; the run takes each trace's rendering from its items
    instead of rendering every label again. *)

(** {1 In-memory runs} *)

val run : ?options:options -> Versions.t -> Afsa.t -> report
(** [run vs target] opens [target] as a new version of [vs] and
    migrates every instance that complies with it; non-compliant
    instances stay where they are ({!Compliance.Finish_on_old} /
    {!Compliance.Stuck}), and deferred batches stay whole on their old
    versions. Mutates [vs]. *)

(** {1 Plans} *)

type plan = {
  publics : Afsa.t list;  (** version history, oldest first (v1..vk) *)
  target : Afsa.t;
  pops : Population.spec list;
  batch_size : int;
  batch_fuel : int option;
  memo_capacity : int;
}

val check_plan : plan -> (unit, string) result
(** [Error] naming the first field out of range: a batch size below 1,
    an empty history, a spec whose version is not in the history, or a
    spec whose [max_len] is outside [0 .. 2^30 - 2] (the lengths the
    sampler can draw). A plan that passes builds and runs.
    {!run_journaled} checks before it writes anything, and
    {!Kind.plan_of_json} rejects the same plans. *)

val build_plan : plan -> Versions.t
(** Rebuild the populated version store a plan describes — pure in the
    plan, which is what lets a journal persist specs instead of traces.
    @raise Invalid_argument with {!check_plan}'s message on a plan it
    rejects. *)

val options_of_plan : ?pool:Pool.t -> plan -> options

(** {1 Journaled runs}

    The [migrate] kind of {!Chorev_wal.Run}: the plan is the whole
    {!plan} (serialized publics, specs, batch parameters), each batch
    commits one record (its counters plus the fresh
    [(key, verdict, fuel)] entries in work order), and [Done] seals the
    run with the final assignment digest. *)

type record =
  | Batch of {
      index : int;
      deferred : bool;
      fuel : int;
      migrated : int;
      finishing : int;
      stuck : int;
      hits : int;
      entries : (string * Compliance.disposition * int) list;
    }
  | Done of { digest : string }

module Kind :
  Chorev_wal.Run.KIND with type plan = plan and type record = record
(** The [migrate] codec. *)

type journaled = { report : report; replayed : int }

val run_journaled :
  ?pool:Pool.t -> ?crash_after:int -> dir:string -> plan -> (report, string) result
(** Write the plan, run every batch committing one record per batch,
    seal with [Done]. [Error], with nothing written, if {!check_plan}
    rejects the plan or [dir] already holds a run.
    [crash_after] is the {!Chorev_wal.Run.Simulated_crash} hook. *)

val resume :
  ?pool:Pool.t -> ?crash_after:int -> dir:string -> unit -> (journaled, string) result
(** Replay the committed batches against the rebuilt plan state —
    verifying the journaled verdict keys and counters match what the
    plan dictates — then run the rest live. [replayed] is the number of
    batches taken from the journal. A sealed journal replays fully and
    its final digest is checked. The report is byte-identical to an
    uninterrupted run's. *)
