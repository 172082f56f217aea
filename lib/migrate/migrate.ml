(** The batched instance migrator (Sec. 8 at production scale): push
    100k–1M running instances through a schema change in fixed-size
    batches fanned over the domain pool, under per-batch budgets with
    explicit degrade, with verdict memoization and a journal-backed
    checkpoint/resume discipline.

    Determinism is the organizing constraint, exactly as in the rest of
    the system:

    - {b Verdicts} come from sealed {!Compliance.ctx} values shared by
      every domain; each verdict costs [1 + messages replayed] fuel,
      charged to a budget minted {e inside} the pool task, so fuel is
      identical at every pool size.
    - {b Memoization}: a verdict depends only on (source public, target
      public, trace), so distinct traces are classified once per run
      and the common-prefix bulk of a population collapses into LRU
      hits. All memo traffic happens on the coordinator in slice order
      — the table's content {e and recency} at every batch boundary are
      deterministic, even under eviction. The memo key and the digest
      rendering of each distinct (source version, trace) are computed
      once per run and shared by every instance carrying it, so an
      instance costs no MD5 and no label rendering.
    - {b Degrade, never half-migrate}: a batch whose fresh verdicts
      trip or collectively exceed the batch budget is {e deferred} — it
      contributes no memo entries and moves no instances. Every
      non-deferred batch is applied atomically between two checkpoint
      records.
    - {b Checkpoint/resume}: the journal stores the population {e plan}
      (specs + serialized publics) plus one record per batch carrying
      its fresh verdicts. Replay re-runs the exact coordinator
      sequence with computed verdicts substituted from the record, so
      a killed run resumed later produces a byte-identical report. *)

module Afsa = Chorev_afsa.Afsa
module Label = Chorev_afsa.Label
module Serialize = Chorev_afsa.Serialize
module Fingerprint = Chorev_afsa.Fingerprint
module Instance = Chorev_migration.Instance
module Versions = Chorev_migration.Versions
module Compliance = Chorev_migration.Compliance
module Budget = Chorev_guard.Budget
module Pool = Chorev_parallel.Pool
module Lru = Chorev_cache.Lru
module Json = Chorev_wal.Json
module Obs = Chorev_obs.Obs
module Sink = Chorev_obs.Sink

(* ------------------------------------------------------------------ *)
(* Options, batches, reports                                           *)
(* ------------------------------------------------------------------ *)

type options = {
  batch_size : int;
  batch_fuel : int option;
      (** fuel bound: minted per verdict task, and the cap on a batch's
          summed fresh-verdict spend — exceeding either defers the
          batch. [None] = unbudgeted, nothing defers. *)
  memo_capacity : int;  (** verdict LRU capacity *)
  pool : Pool.t option;  (** [None] = the process-default pool *)
}

let default_options =
  { batch_size = 1024; batch_fuel = None; memo_capacity = 65536; pool = None }

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

let totals r =
  List.fold_left
    (fun (m, f, s, fr, h, fu) b ->
      (m + b.migrated, f + b.finishing, s + b.stuck, fr + b.fresh, h + b.hits,
       fu + b.fuel))
    (0, 0, 0, 0, 0, 0) r.batches

let deferred_batches r = List.filter (fun b -> b.deferred) r.batches

let pp_report ppf r =
  let migrated, finishing, stuck, fresh, hits, fuel = totals r in
  Fmt.pf ppf "@[<v>migration to v%d: %d instances in %d batches of <=%d@,"
    r.to_version r.total (List.length r.batches) r.batch_size;
  Fmt.pf ppf "  migrated %d  finishing-on-old %d  stuck %d@," migrated
    finishing stuck;
  Fmt.pf ppf "  verdicts: %d computed, %d memo hits, fuel %d@," fresh hits fuel;
  (match deferred_batches r with
  | [] -> ()
  | ds ->
      Fmt.pf ppf "  deferred batches: %a (%d instances left in place)@,"
        (Fmt.list ~sep:(Fmt.any ", ") (fun ppf b -> Fmt.int ppf b.index))
        ds
        (List.fold_left (fun a b -> a + b.size) 0 ds));
  Fmt.pf ppf "  by version:%a@,"
    (Fmt.list ~sep:Fmt.nop (fun ppf (n, c) -> Fmt.pf ppf " v%d=%d" n c))
    r.by_version;
  Fmt.pf ppf "  digest %s@]" r.digest

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

(* The digest's rendering of a trace: every label followed by a comma. *)
let rendering trace =
  let buf = Buffer.create 64 in
  List.iter
    (fun l ->
      Buffer.add_string buf (Label.to_string l);
      Buffer.add_char buf ',')
    trace;
  Buffer.contents buf

(* A verdict depends only on (source public, target public, trace) —
   the memo key digests exactly that. *)
let trace_key ~old_fp ~new_fp trace =
  let buf = Buffer.create 64 in
  Buffer.add_string buf old_fp;
  Buffer.add_char buf '\000';
  Buffer.add_string buf new_fp;
  Buffer.add_char buf '\000';
  List.iter
    (fun l ->
      Buffer.add_string buf (Label.to_string l);
      Buffer.add_char buf '\001')
    trace;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* One distinct (source version, trace) of a run: its memo key and its
   rendering in the report digest, each computed once. *)
type trace = { key : string; rendering : string }

type item = {
  inst : Instance.t;
  from_version : int;
  trace : trace;  (** shared by every item with the same source and trace *)
  mutable host : int;  (** hosting version; [finish_batch] moves it *)
}

(* Keys on (source version, trace). [Hashtbl.hash] stops after 10
   meaningful values, about two labels of a trace, so the hash folds
   every label. *)
module Trace_tbl = Hashtbl.Make (struct
  type t = int * Label.t list

  let equal ((v, t) : t) (v', t') = v = v' && List.equal Label.equal t t'
  let hash ((v, t) : t) =
    List.fold_left (fun h l -> (h * 31) + Hashtbl.hash l) v t
end)

type engine = {
  vs : Versions.t;
  to_version : int;
  new_ctx : Compliance.ctx;
  old_ctxs : (int * Compliance.ctx) list;  (** per source version *)
  items : item array;  (** admission order *)
  memo : (string, Compliance.disposition * int) Lru.t;
  opts : options;
}

let prepare vs target (opts : options) =
  if opts.batch_size < 1 then invalid_arg "Migrate: batch_size < 1";
  Obs.span "migrate.prepare" @@ fun () ->
  let sources =
    List.map
      (fun (n, _) ->
        (n, Versions.version_public (Option.get (Versions.find_version vs n))))
      (Versions.counts vs)
  in
  let fps = List.map (fun (n, p) -> (n, Fingerprint.hex p)) sources in
  let old_ctxs = List.map (fun (n, p) -> (n, Compliance.context p)) sources in
  let new_fp = Fingerprint.hex target in
  let admitted = Versions.in_admission_order vs in
  let to_version = Versions.add_version vs target in
  let new_ctx = Compliance.context target in
  let traces = Trace_tbl.create 64 in
  let trace_of vnum trace =
    let k = (vnum, trace) in
    match Trace_tbl.find_opt traces k with
    | Some t -> t
    | None ->
        let key = trace_key ~old_fp:(List.assoc vnum fps) ~new_fp trace in
        let t = { key; rendering = rendering trace } in
        Trace_tbl.add traces k t;
        t
  in
  let items =
    admitted
    |> List.map (fun (vnum, (inst : Instance.t)) ->
           let trace = trace_of vnum inst.Instance.trace in
           { inst; from_version = vnum; trace; host = vnum })
    |> Array.of_list
  in
  {
    vs;
    to_version;
    new_ctx;
    old_ctxs;
    items;
    memo = Lru.create ~capacity:(max 1 opts.memo_capacity);
    opts;
  }

let num_batches engine =
  let n = Array.length engine.items in
  if n = 0 then 0 else ((n - 1) / engine.opts.batch_size) + 1

let slice engine index =
  let lo = index * engine.opts.batch_size in
  let hi = min (Array.length engine.items) (lo + engine.opts.batch_size) in
  (lo, hi)

(* Pass 1 over a slice: one memo find per item in slice order (this is
   the only place recency moves, so the table state at every batch
   boundary is a pure function of the batch history), collecting the
   first occurrence of every missing key as the batch's fresh work. *)
let lookup_phase engine lo hi =
  let found = Array.make (hi - lo) None in
  let seen = Hashtbl.create 64 in
  let work = ref [] in
  for i = lo to hi - 1 do
    let item = engine.items.(i) in
    let key = item.trace.key in
    match Lru.find engine.memo key with
    | Some v -> found.(i - lo) <- Some v
    | None ->
        if not (Hashtbl.mem seen key) then (
          Hashtbl.add seen key ();
          work := item :: !work)
  done;
  (found, List.rev !work)

(* Fan the fresh work over the pool. Each task mints its own budget
   from the batch spec, so fuel attribution is independent of pool
   size and scheduling. *)
let compute_live engine work =
  let pool =
    match engine.opts.pool with Some p -> p | None -> Pool.default ()
  in
  Pool.map ~pool
    (fun item ->
      let old_ctx = List.assoc item.from_version engine.old_ctxs in
      (* [create], not [of_spec]: an unbounded spec must still count
         ticks so the report's fuel column is meaningful *)
      let b = Budget.create ?fuel:engine.opts.batch_fuel () in
      match
        Budget.run b (fun () ->
            Compliance.dispose_ctx ~old_ctx ~new_ctx:engine.new_ctx item.inst)
      with
      | `Done d -> (item.trace.key, Ok (d, Budget.spent b))
      | `Exceeded info -> (item.trace.key, Error info.Budget.spent))
    work

type batch_outcome = {
  b : batch;
  fresh_entries : (string * Compliance.disposition * int) list;
      (** (key, disposition, fuel) in work order; [] when deferred *)
}

(* Pass 2: commit the batch. Fresh entries go into the memo in work
   order, then every slice item is resolved — step-1 hits from the
   saved lookup, the rest through one more find (identical recency
   traffic live and on replay; a same-batch eviction falls back to the
   batch's own entry list). Migratable instances move; a deferred
   batch commits nothing. *)
let finish_batch engine ~index ~lo ~hi ~(found : (Compliance.disposition * int) option array)
    ~entries ~deferred ~fuel =
  let hits = Array.fold_left (fun a o -> if o = None then a else a + 1) 0 found in
  if deferred then
    {
      b =
        {
          index;
          size = hi - lo;
          migrated = 0;
          finishing = 0;
          stuck = 0;
          fresh = 0;
          hits;
          fuel;
          deferred = true;
        };
      fresh_entries = [];
    }
  else begin
    List.iter (fun (k, d, fu) -> Lru.add engine.memo k (d, fu)) entries;
    let local = Hashtbl.create (List.length entries) in
    List.iter (fun (k, d, _) -> Hashtbl.replace local k d) entries;
    let migrated = ref 0 and finishing = ref 0 and stuck = ref 0 in
    for i = lo to hi - 1 do
      let item = engine.items.(i) in
      let disp =
        match found.(i - lo) with
        | Some (d, _) -> d
        | None -> (
            match Lru.find engine.memo item.trace.key with
            | Some (d, _) -> d
            | None -> Hashtbl.find local item.trace.key)
      in
      match disp with
      | Compliance.Migrate ->
          incr migrated;
          Versions.move_instance engine.vs ~id:item.inst.Instance.id
            ~to_version:engine.to_version;
          item.host <- engine.to_version
      | Compliance.Finish_on_old -> incr finishing
      | Compliance.Stuck -> incr stuck
    done;
    {
      b =
        {
          index;
          size = hi - lo;
          migrated = !migrated;
          finishing = !finishing;
          stuck = !stuck;
          fresh = List.length entries;
          hits;
          fuel;
          deferred = false;
        };
      fresh_entries = entries;
    }
  end

let batch_span index = Obs.span "migrate.batch" ~attrs:[ ("index", Sink.Int index) ]

let run_batch_live engine index =
  batch_span index @@ fun () ->
  let lo, hi = slice engine index in
  let found, work = lookup_phase engine lo hi in
  let results = compute_live engine work in
  let fuel =
    List.fold_left
      (fun acc (_, r) -> acc + (match r with Ok (_, f) -> f | Error s -> s))
      0 results
  in
  let exceeded = List.exists (fun (_, r) -> Result.is_error r) results in
  let deferred =
    match engine.opts.batch_fuel with
    | None -> false
    | Some cap -> exceeded || fuel > cap
  in
  let entries =
    if deferred then []
    else
      List.map
        (fun (k, r) ->
          match r with Ok (d, f) -> (k, d, f) | Error _ -> assert false)
        results
  in
  finish_batch engine ~index ~lo ~hi ~found ~entries ~deferred ~fuel

(* One row of the report digest. *)
let add_row buf version id rendering =
  Buffer.add_string buf version;
  Buffer.add_char buf ':';
  Buffer.add_string buf id;
  Buffer.add_char buf ':';
  Buffer.add_string buf rendering;
  Buffer.add_char buf '\n'

let final_digest vs =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (vnum, (i : Instance.t)) ->
      add_row buf (string_of_int vnum) i.Instance.id (rendering i.Instance.trace))
    (Versions.in_admission_order vs);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* [final_digest] of the store the run leaves, written from the items:
   each item's host and its trace's rendering. The buffer is sized up
   front: grown by doubling, it took the heap peak of a 100k-instance
   run from 35 to 51 MB. *)
let items_digest engine =
  let names = Array.init (engine.to_version + 1) string_of_int in
  let size =
    Array.fold_left
      (fun n it ->
        n + String.length names.(it.host) + String.length it.inst.Instance.id
        + String.length it.trace.rendering + 3)
      0 engine.items
  in
  let buf = Buffer.create size in
  Array.iter
    (fun it -> add_row buf names.(it.host) it.inst.Instance.id it.trace.rendering)
    engine.items;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let mk_report engine rev_batches =
  Obs.span "migrate.report" @@ fun () ->
  {
    to_version = engine.to_version;
    total = Array.length engine.items;
    batch_size = engine.opts.batch_size;
    batches = List.rev rev_batches;
    by_version = Versions.counts engine.vs;
    digest = items_digest engine;
  }

(** One in-memory batched migration of every live instance of [vs] to
    [target]. Mutates [vs] (opens the new version, moves migratable
    instances) and returns the report. *)
let run ?(options = default_options) vs target =
  let engine = prepare vs target options in
  let batches = ref [] in
  for index = 0 to num_batches engine - 1 do
    batches := (run_batch_live engine index).b :: !batches
  done;
  mk_report engine !batches

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)
(* ------------------------------------------------------------------ *)

type plan = {
  publics : Afsa.t list;  (** version history, oldest first (v1..vk) *)
  target : Afsa.t;
  pops : Population.spec list;
  batch_size : int;
  batch_fuel : int option;
  memo_capacity : int;
}

let options_of_plan ?pool plan =
  {
    batch_size = plan.batch_size;
    batch_fuel = plan.batch_fuel;
    memo_capacity = plan.memo_capacity;
    pool;
  }

(* The largest [max_len] a spec may carry: the sampler draws a trace
   length with [Random.State.int (max_len + 1)], whose bound must stay
   below 2^30. *)
let max_len_limit = (1 lsl 30) - 2

let check_plan plan =
  let bad fmt = Printf.ksprintf (fun m -> Error ("migrate plan: " ^ m)) fmt in
  let history = List.length plan.publics in
  let rec specs i = function
    | [] -> Ok ()
    | (s : Population.spec) :: rest ->
        if s.version < 1 || s.version > history then
          bad "pops[%d].version %d is not in the history v1..v%d" i s.version
            history
        else if s.max_len < 0 || s.max_len > max_len_limit then
          bad "pops[%d].max_len %d is outside 0..%d" i s.max_len max_len_limit
        else specs (i + 1) rest
  in
  if plan.batch_size < 1 then bad "batch size %d is below 1" plan.batch_size
  else if history = 0 then bad "empty version history"
  else specs 0 plan.pops

(** Rebuild the populated version store a plan describes — pure in the
    plan, so a resuming process reconstructs the exact pre-migration
    state without the journal storing a single trace. *)
let build_plan plan =
  Result.iter_error invalid_arg (check_plan plan);
  let vs = Versions.create (List.hd plan.publics) in
  List.iter (fun p -> ignore (Versions.add_version vs p)) (List.tl plan.publics);
  List.iter (Population.populate vs) plan.pops;
  vs

(* ------------------------------------------------------------------ *)
(* Durable runs                                                        *)
(* ------------------------------------------------------------------ *)

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

let ( let* ) = Result.bind

let disp_to_int = function
  | Compliance.Migrate -> 0
  | Compliance.Finish_on_old -> 1
  | Compliance.Stuck -> 2

let disp_of_int = function
  | 0 -> Ok Compliance.Migrate
  | 1 -> Ok Compliance.Finish_on_old
  | 2 -> Ok Compliance.Stuck
  | n -> Error (Printf.sprintf "batch: bad disposition %d" n)

(* The [migrate] codec: the plan carries the serialized version
   history and target, never a trace — [build_plan] regenerates the
   population. *)
module Kind = struct
  let kind = "migrate"

  type nonrec plan = plan
  type nonrec record = record

  let int j k = match Json.member k j with Some (Json.Int i) -> Some i | _ -> None
  let str j k = match Json.member k j with Some (Json.Str s) -> Some s | _ -> None
  let afsa a = Json.Str (Serialize.to_string a)

  let afsa_of = function
    | Json.Str s -> Serialize.of_string s
    | _ -> Error "migrate plan: malformed automaton"

  let spec_to_json (s : Population.spec) =
    Json.Obj
      [
        ("version", Json.Int s.version);
        ("count", Json.Int s.count);
        ("seed", Json.Int s.seed);
        ("max_len", Json.Int s.max_len);
        ("prefix", Json.Str s.prefix);
      ]

  let spec_of_json j =
    match
      (int j "version", int j "count", int j "seed", int j "max_len", str j "prefix")
    with
    | Some version, Some count, Some seed, Some max_len, Some prefix ->
        Ok { Population.version; count; seed; max_len; prefix }
    | _ -> Error "population spec: missing field"

  let plan_to_json (p : plan) =
    Json.Obj
      [
        ("publics", Json.Arr (List.map afsa p.publics));
        ("target", afsa p.target);
        ("pops", Json.Arr (List.map spec_to_json p.pops));
        ("batch", Json.Int p.batch_size);
        ("batch_fuel", match p.batch_fuel with None -> Json.Null | Some f -> Json.Int f);
        ("memo", Json.Int p.memo_capacity);
      ]

  let plan_of_json j =
    match
      (Json.member "publics" j, Json.member "target" j, Json.member "pops" j,
       int j "batch", Json.member "batch_fuel" j, int j "memo")
    with
    | Some publics, Some target, Some pops, Some batch_size, Some fuel,
      Some memo_capacity ->
        let* publics = Json.list afsa_of publics in
        let* target = afsa_of target in
        let* pops = Json.list spec_of_json pops in
        let* batch_fuel =
          match fuel with
          | Json.Null -> Ok None
          | Json.Int f -> Ok (Some f)
          | _ -> Error "migrate plan: malformed batch_fuel"
        in
        let plan =
          { publics; target; pops; batch_size; batch_fuel; memo_capacity }
        in
        let* () = check_plan plan in
        Ok plan
    | _ -> Error "migrate plan: missing field"

  let record_to_json = function
    | Batch { index; deferred; fuel; migrated; finishing; stuck; hits; entries } ->
        Json.Obj
          [
            ("rec", Json.Str "batch");
            ("index", Json.Int index);
            ("deferred", Json.Bool deferred);
            ("fuel", Json.Int fuel);
            ("migrated", Json.Int migrated);
            ("finishing", Json.Int finishing);
            ("stuck", Json.Int stuck);
            ("hits", Json.Int hits);
            ( "entries",
              Json.Arr
                (List.map
                   (fun (k, d, f) ->
                     Json.Arr [ Json.Str k; Json.Int (disp_to_int d); Json.Int f ])
                   entries) );
          ]
    | Done { digest } ->
        Json.Obj [ ("rec", Json.Str "done"); ("digest", Json.Str digest) ]

  let record_of_json j =
    match str j "rec" with
    | Some "batch" -> (
        match
          ( int j "index", Json.member "deferred" j, int j "fuel", int j "migrated",
            int j "finishing", int j "stuck", int j "hits", Json.member "entries" j )
        with
        | Some index, Some (Json.Bool deferred), Some fuel, Some migrated,
          Some finishing, Some stuck, Some hits, Some es ->
            let* entries =
              Json.list
                (function
                  | Json.Arr [ Json.Str k; Json.Int d; Json.Int f ] ->
                      let* d = disp_of_int d in
                      Ok (k, d, f)
                  | _ -> Error "batch: malformed entry")
                es
            in
            Ok
              (Batch
                 { index; deferred; fuel; migrated; finishing; stuck; hits; entries })
        | _ -> Error "batch: missing field")
    | Some "done" -> (
        match str j "digest" with
        | Some digest -> Ok (Done { digest })
        | None -> Error "done: missing field")
    | _ -> Error "unknown record type"

  let is_seal = function Done _ -> true | Batch _ -> false
end

module Run = Chorev_wal.Run.Make (Kind)

let record_of_outcome index (out : batch_outcome) =
  Batch
    {
      index;
      deferred = out.b.deferred;
      fuel = out.b.fuel;
      migrated = out.b.migrated;
      finishing = out.b.finishing;
      stuck = out.b.stuck;
      hits = out.b.hits;
      entries = out.fresh_entries;
    }

(* Replay one journaled batch: identical coordinator sequence with the
   recorded verdicts substituted for the pool fan-out. The recorded
   fresh keys must match the keys this state would compute — anything
   else means the journal does not belong to this plan. *)
let replay_batch engine index r =
  match r with
  | Batch rb when rb.index = index ->
      batch_span index @@ fun () ->
      let lo, hi = slice engine index in
      let found, work = lookup_phase engine lo hi in
      if rb.deferred then
        Ok (finish_batch engine ~index ~lo ~hi ~found ~entries:[] ~deferred:true
              ~fuel:rb.fuel)
      else
        let expected = List.map (fun it -> it.trace.key) work in
        let recorded = List.map (fun (k, _, _) -> k) rb.entries in
        if expected <> recorded then
          Error
            (Printf.sprintf
               "batch %d: journaled verdict keys do not match the plan" index)
        else
          let out =
            finish_batch engine ~index ~lo ~hi ~found ~entries:rb.entries
              ~deferred:false ~fuel:rb.fuel
          in
          if
            (out.b.migrated, out.b.finishing, out.b.stuck, out.b.hits)
            <> (rb.migrated, rb.finishing, rb.stuck, rb.hits)
          then
            Error
              (Printf.sprintf "batch %d: replayed counters diverge from journal"
                 index)
          else Ok out
  | Batch rb ->
      Error (Printf.sprintf "expected batch %d, journal has %d" index rb.index)
  | Done _ -> Error (Printf.sprintf "journal sealed before batch %d" index)

type journaled = { report : report; replayed : int }

let run_live engine run ~from_batch rev_batches =
  let batches = ref rev_batches in
  for index = from_batch to num_batches engine - 1 do
    let out = run_batch_live engine index in
    Run.commit run (record_of_outcome index out);
    batches := out.b :: !batches
  done;
  let report = mk_report engine !batches in
  Run.commit run (Done { digest = report.digest });
  report

let engine_of ?pool plan =
  prepare (build_plan plan) plan.target (options_of_plan ?pool plan)

let run_journaled ?pool ?crash_after ~dir plan =
  let* () = check_plan plan in
  let* run = Run.create ?crash_after ~dir plan in
  Ok (run_live (engine_of ?pool plan) run ~from_batch:0 [])

let resume ?pool ?crash_after ~dir () =
  let* l = Run.load ~dir in
  let fail file e = Error (Printf.sprintf "%s: %s" (Filename.concat dir file) e) in
  let rec replay engine acc index = function
    | [] | [ Done _ ] -> Ok (acc, index)
    | r :: rest ->
        let* out = replay_batch engine index r in
        replay engine (out.b :: acc) (index + 1) rest
  in
  (* [Kind.plan_of_json] ran [check_plan], so building cannot raise *)
  let engine = engine_of ?pool l.plan in
  match replay engine [] 0 l.records with
  | Error e -> fail "journal.jsonl" e
  | Ok (rev_batches, replayed) when not l.sealed ->
      let run = Run.reopen ?crash_after ~dir l in
      Ok { report = run_live engine run ~from_batch:replayed rev_batches; replayed }
  | Ok (rev_batches, replayed) -> (
      let report = mk_report engine rev_batches in
      match List.rev l.records with
      | _ when replayed < num_batches engine ->
          fail "journal.jsonl" "journal sealed before every batch was committed"
      | Done { digest } :: _ when digest = report.digest -> Ok { report; replayed }
      | _ ->
          fail "journal.jsonl"
            "sealed journal digest diverges from the replayed state")
