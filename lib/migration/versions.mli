(** Version coexistence (Sec. 8: "the co-existence of different
    versions of a process choreography is a must"): version history of
    one party's public process with instances pinned to versions;
    publishing migrates compliant instances, drained versions retire.

    Instances are stored in one admission log shared by every version,
    oldest first, with an id index (all single-instance operations are
    amortized O(1)) and a per-version instance count. All enumeration orders are
    scans of that log — deterministic, never hash order. Ids are
    unique across the store: starting an existing id moves it to the
    back of the log. *)

module Afsa = Chorev_afsa.Afsa

type version
type t

type migration_report = {
  to_version : int;
  migrated : string list;
  finishing_on_old : (string * int) list;
  stuck : string list;
}

val create : Afsa.t -> t
val current : t -> version
val version_numbers : t -> int list
val find_version : t -> int -> version option

val version_number : version -> int
val version_public : version -> Afsa.t
val version_count : version -> int

val version_instances : version -> Instance.t list
(** Hosted instances, most recently admitted first (one scan of the
    store's log). *)

val start : t -> Instance.t -> unit
(** New instance on the current version. *)

val start_on : t -> int -> Instance.t -> unit
(** New instance on a specific live version.
    @raise Invalid_argument when the version is not live. *)

val observe : t -> id:string -> Chorev_afsa.Label.t -> unit
(** Record a message on a running instance. *)

val remove : t -> id:string -> bool
(** Drop an instance (it completed); [false] when unknown. *)

val find_instance : t -> string -> (int * Instance.t) option
(** The hosting version and current trace of an instance. *)

val instance_count : t -> int
val counts : t -> (int * int) list
(** Per live version (newest first): [(number, instance count)]. *)

val all_instances : t -> (int * Instance.t) list
(** Versions newest first, instances within each version most recently
    admitted first. *)

val in_admission_order : t -> (int * Instance.t) list
(** Every live instance with its hosting version, oldest admission
    first — the stable enumeration the batched migrator slices. *)

val add_version : t -> Afsa.t -> int
(** Open a fresh empty current version without classifying anything;
    returns its number. *)

val move_instance : t -> id:string -> to_version:int -> unit
(** Re-pin an instance to another live version (its place in admission
    order kept).
    @raise Invalid_argument on unknown instance or version. *)

val publish : t -> Afsa.t -> migration_report
(** New version; compliant instances of all live versions migrate.
    Classification runs in admission order.

    Off every production path: [chorev serve] and [chorev migrate] both
    migrate through [Chorev_migrate.Engine] (batched, journaled,
    budgeted). This one-shot form is the reference that test_migrate,
    perfbench's check and [examples/dynamic_migration.ml] compare
    against. *)

val retire_drained : t -> int list
(** Retire versions with no instances (never the current); returns the
    retired numbers. *)

val pp_report : Format.formatter -> migration_report -> unit
