(** Bounded LRU map (Hashtbl + intrusive recency list, O(1) ops). Not
    thread-safe: keep one instance per domain or confine it to the
    sequential coordinator. Each instance counts its own hits, misses
    and evictions (always on) and bumps the global
    [cache.{hit,miss,evict}] {!Chorev_obs.Metrics} counters. *)

type ('k, 'v) t

type stats = { hits : int; misses : int; evictions : int; size : int }

val create : capacity:int -> ('k, 'v) t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val length : ('k, 'v) t -> int
val stats : ('k, 'v) t -> stats

val find : ('k, 'v) t -> 'k -> 'v option
(** Counts a hit (and refreshes recency) or a miss. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or overwrite; evicts the least recently used binding when
    the capacity is exceeded. *)

val get : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** Find-or-compute-and-insert. *)

val clear : ('k, 'v) t -> unit
(** Drop every binding (stats are kept). *)

val keys : ('k, 'v) t -> 'k list
(** Keys, most recently used first. *)
