(** Allocation accounting over [Gc.quick_stat] deltas.

    The array-kernel work (DESIGN.md §12) is as much about allocation
    as wall-clock: the map-shaped algebra allocates a fresh set/map node
    per explored state and the GC becomes the hot path at serve volume.
    This module makes that cost observable: snapshot the GC counters,
    run a phase, and the delta — minor/major allocated words, promotions
    and collection counts — lands in the {!Metrics} registry (counters
    [gc.minor_words], [gc.major_words], [gc.promoted_words],
    [gc.minor_collections], [gc.major_collections]), in the profiler's
    per-phase table, and in the bench harness's [--json] [counters].

    [Gc.quick_stat] does not walk the heap, so a snapshot is a few
    loads — cheap enough to take per span. Word counts are per-domain
    (the allocating domain's view). *)

type snap
(** A point-in-time reading of the GC counters. *)

type delta = {
  minor_w : int;  (** words allocated in the minor heap *)
  major_w : int;  (** words allocated directly in the major heap *)
  promoted_w : int;  (** words promoted minor → major *)
  minor_gcs : int;  (** minor collections *)
  major_gcs : int;  (** major collection cycles completed *)
}

val snap : unit -> snap

val diff : snap -> snap -> delta
(** [diff before after]. *)

val measure : (unit -> 'a) -> 'a * delta
(** Run the thunk and report what it allocated. *)

val record : delta -> unit
(** Accumulate the delta into the [gc.*] {!Metrics} counters (a no-op
    while metrics are disabled, like every counter bump). *)

val measured : (unit -> 'a) -> 'a
(** [measure] + [record]: account the thunk's allocations to the
    metrics registry and return its result. *)
