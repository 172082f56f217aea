(** Memoized entry points of the aFSA algebra, keyed by canonical
    fingerprints.

    Each domain owns one set of bounded {!Lru} tables (DLS, like the
    formula hash-consing): results never cross domains, so the lazy
    index of a memoized automaton is only ever touched from the domain
    that computed it. Result automata are passed through
    {!Intern.canonical}, which both de-duplicates storage and
    pre-computes their fingerprints — results are minimized (or
    canonically numbered) automata, so fingerprints taken here are
    language-canonical keys for downstream lookups.

    {b Budget interaction.} The wrappers consult the cache only when the
    ambient {!Chorev_guard.Budget} is the unlimited singleton. Under a
    finite budget they call the raw operation unconditionally: a memo
    hit would skip the operation's fuel ticks, making fuel spend depend
    on cache history (and, with per-domain tables, on the pool size) —
    breaking the determinism invariant that a given (input, fuel) pair
    trips identically everywhere. Budgets therefore tick on cache
    misses only, trivially: there are no cache hits under a limited
    budget. *)

module Afsa = Chorev_afsa.Afsa
module Fingerprint = Chorev_afsa.Fingerprint
module Label = Chorev_afsa.Label
module Budget = Chorev_guard.Budget

let default_capacity = 512

type tables = {
  tau : (string * string, Afsa.t) Lru.t; (* observer, fp *)
  binop : (char * string * string, Afsa.t) Lru.t; (* op tag, fp, fp *)
  unop : (char * string, Afsa.t) Lru.t; (* op tag, fp *)
  gen : (Afsa.t * Chorev_mapping.Table.t) Intern.Proc_tbl.t; (* identity *)
  mutable gen_hits : int; (* [gen]'s {!Lru.stats} counts *)
  mutable gen_misses : int;
  pair : (string * string, bool * Label.t list option) Lru.t;
      (* bilateral consistency verdicts on (fp, fp) *)
}

let make_tables () =
  {
    tau = Lru.create ~capacity:default_capacity;
    binop = Lru.create ~capacity:default_capacity;
    unop = Lru.create ~capacity:default_capacity;
    gen = Intern.Proc_tbl.create 64;
    gen_hits = 0; gen_misses = 0;
    pair = Lru.create ~capacity:default_capacity;
  }

let dls = Domain.DLS.new_key make_tables
let tables () = Domain.DLS.get dls

(** Memoize only when no fuel or deadline is in force. *)
let active () = Budget.is_unlimited (Budget.ambient ())

let tau ~observer a =
  if not (active ()) then Chorev_afsa.View.tau ~observer a
  else
    let t = tables () in
    Lru.get t.tau (observer, Fingerprint.digest a) (fun () ->
        Intern.canonical (Chorev_afsa.View.tau ~observer a))

let binop tag raw a b =
  if not (active ()) then raw a b
  else
    let t = tables () in
    Lru.get t.binop
      (tag, Fingerprint.digest a, Fingerprint.digest b)
      (fun () -> Intern.canonical (raw a b))

let difference a b = binop 'd' (fun a b -> Chorev_afsa.Ops.difference a b) a b
let union a b = binop 'u' (fun a b -> Chorev_afsa.Ops.union a b) a b

let unop tag raw a =
  if not (active ()) then raw a
  else
    let t = tables () in
    Lru.get t.unop (tag, Fingerprint.digest a) (fun () ->
        Intern.canonical (raw a))

let minimize a = unop 'm' (fun a -> Chorev_afsa.Minimize.minimize a) a

(* the global counters the Lru tables bump *)
let m_hit = Chorev_obs.Metrics.counter "cache.hit"
let m_miss = Chorev_obs.Metrics.counter "cache.miss"

let generate p =
  if not (active ()) then Chorev_mapping.Public_gen.generate p
  else
    let t = tables () in
    match Intern.Proc_tbl.find_opt t.gen p with
    | Some r ->
        t.gen_hits <- t.gen_hits + 1;
        Chorev_obs.Metrics.incr m_hit;
        r
    | None ->
        t.gen_misses <- t.gen_misses + 1;
        Chorev_obs.Metrics.incr m_miss;
        let public, table = Chorev_mapping.Public_gen.generate p in
        let r = (Intern.canonical public, table) in
        Intern.Proc_tbl.add t.gen p r;
        r

let public p = fst (generate p)

(** Bilateral consistency verdict (consistent?, witness) of two public
    processes — the intersection automaton itself is not kept. *)
let check_verdict a b =
  if not (active ()) then
    let r = Chorev_afsa.Consistency.check a b in
    (r.Chorev_afsa.Consistency.consistent, r.Chorev_afsa.Consistency.witness)
  else
    let t = tables () in
    Lru.get t.pair
      (Fingerprint.digest a, Fingerprint.digest b)
      (fun () ->
        let r = Chorev_afsa.Consistency.check a b in
        ( r.Chorev_afsa.Consistency.consistent,
          r.Chorev_afsa.Consistency.witness ))

let consistent a b = fst (check_verdict a b)

(** Hit/miss/eviction statistics of this domain's tables. *)
let stats () =
  let t = tables () in
  [
    ("tau", Lru.stats t.tau);
    ("binop", Lru.stats t.binop);
    ("unop", Lru.stats t.unop);
    ( "generate",
      { Lru.hits = t.gen_hits; misses = t.gen_misses; evictions = 0;
        size = Intern.Proc_tbl.length t.gen } );
    ("pair", Lru.stats t.pair);
  ]

(** Drop every memoized result in this domain (for benchmarks that
    need a cold start; stats are kept). *)
let reset () =
  let t = tables () in
  Lru.clear t.tau;
  Lru.clear t.binop;
  Lru.clear t.unop;
  Intern.Proc_tbl.reset t.gen;
  Lru.clear t.pair
