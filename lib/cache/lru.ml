(** A bounded LRU map: Hashtbl + intrusive doubly-linked recency list.
    All operations are O(1); eviction drops the least recently used
    binding. Not thread-safe — the cache layer keeps one instance per
    domain (DLS) or confines an instance to the sequential coordinator,
    mirroring the hash-consing discipline of [Chorev_formula].

    Every instance keeps its own hit/miss/eviction counts (plain ints,
    always on — the bench reports reuse rates even with metrics
    collection off) and additionally bumps the global
    [cache.{hit,miss,evict}] counters of {!Chorev_obs.Metrics}. *)

module Metrics = Chorev_obs.Metrics

let m_hit = Metrics.counter "cache.hit"
let m_miss = Metrics.counter "cache.miss"
let m_evict = Metrics.counter "cache.evict"

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option; (* towards MRU *)
  mutable next : ('k, 'v) node option; (* towards LRU *)
}

type ('k, 'v) t = {
  capacity : int;
  tbl : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option; (* most recently used *)
  mutable tail : ('k, 'v) node option; (* least recently used *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = { hits : int; misses : int; evictions : int; size : int }

let create ~capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be >= 1";
  {
    capacity;
    tbl = Hashtbl.create 16; (* grows on demand: most tables stay small *)
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let length t = Hashtbl.length t.tbl

let stats (t : ('k, 'v) t) =
  { hits = t.hits; misses = t.misses; evictions = t.evictions; size = length t }

(* Detach [n] from the recency list (it must be in it). *)
let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let find t k =
  match Hashtbl.find_opt t.tbl k with
  | Some n ->
      t.hits <- t.hits + 1;
      Metrics.incr m_hit;
      if
        match t.head with Some h -> h != n | None -> true
      then begin
        unlink t n;
        push_front t n
      end;
      Some n.value
  | None ->
      t.misses <- t.misses + 1;
      Metrics.incr m_miss;
      None

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some n ->
      unlink t n;
      Hashtbl.remove t.tbl n.key;
      t.evictions <- t.evictions + 1;
      Metrics.incr m_evict

let add t k v =
  match Hashtbl.find_opt t.tbl k with
  | Some n ->
      n.value <- v;
      if match t.head with Some h -> h != n | None -> true then begin
        unlink t n;
        push_front t n
      end
  | None ->
      let n = { key = k; value = v; prev = None; next = None } in
      Hashtbl.replace t.tbl k n;
      push_front t n;
      if Hashtbl.length t.tbl > t.capacity then evict_lru t

(** Memoizing find-or-compute. *)
let get t k compute =
  match find t k with
  | Some v -> v
  | None ->
      let v = compute () in
      add t k v;
      v

let clear t =
  Hashtbl.reset t.tbl;
  t.head <- None;
  t.tail <- None

(* MRU-first keys, for tests and debugging. *)
let keys t =
  let rec go acc = function
    | None -> List.rev acc
    | Some n -> go (n.key :: acc) n.next
  in
  go [] t.head
