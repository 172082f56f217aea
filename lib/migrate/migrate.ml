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
      deterministic, even under eviction.
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
module Wal = Chorev_wal.Wal
module Dir = Chorev_wal.Dir

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

type item = { id : string; key : string; from_version : int }

(* A verdict depends only on (source public, target public, trace) —
   the memo key digests exactly that. *)
let trace_key ~old_fp ~new_fp (inst : Instance.t) =
  let buf = Buffer.create 64 in
  Buffer.add_string buf old_fp;
  Buffer.add_char buf '\000';
  Buffer.add_string buf new_fp;
  Buffer.add_char buf '\000';
  List.iter
    (fun l ->
      Buffer.add_string buf (Label.to_string l);
      Buffer.add_char buf '\001')
    inst.Instance.trace;
  Digest.to_hex (Digest.string (Buffer.contents buf))

type engine = {
  vs : Versions.t;
  to_version : int;
  new_ctx : Compliance.ctx;
  old_ctxs : (int * Compliance.ctx) list;  (** per source version *)
  items : (item * Instance.t) array;  (** admission order *)
  memo : (string, Compliance.disposition * int) Lru.t;
  opts : options;
}

let prepare vs target (opts : options) =
  if opts.batch_size < 1 then invalid_arg "Migrate: batch_size < 1";
  let sources = Versions.counts vs in
  let fps =
    List.map
      (fun (n, _) ->
        let v = Option.get (Versions.find_version vs n) in
        (n, Fingerprint.hex (Versions.version_public v)))
      sources
  in
  let old_ctxs =
    List.map
      (fun (n, _) ->
        let v = Option.get (Versions.find_version vs n) in
        (n, Compliance.context (Versions.version_public v)))
      sources
  in
  let new_fp = Fingerprint.hex target in
  let items0 = Versions.in_admission_order vs in
  let to_version = Versions.add_version vs target in
  let new_ctx = Compliance.context target in
  let items =
    items0
    |> List.map (fun (vnum, (inst : Instance.t)) ->
           ( {
               id = inst.Instance.id;
               key = trace_key ~old_fp:(List.assoc vnum fps) ~new_fp inst;
               from_version = vnum;
             },
             inst ))
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
    let item, inst = engine.items.(i) in
    match Lru.find engine.memo item.key with
    | Some v -> found.(i - lo) <- Some v
    | None ->
        if not (Hashtbl.mem seen item.key) then (
          Hashtbl.add seen item.key ();
          work := (item, inst) :: !work)
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
    (fun ((item : item), inst) ->
      let old_ctx = List.assoc item.from_version engine.old_ctxs in
      (* [create], not [of_spec]: an unbounded spec must still count
         ticks so the report's fuel column is meaningful *)
      let b = Budget.create ?fuel:engine.opts.batch_fuel () in
      match
        Budget.run b (fun () ->
            Compliance.dispose_ctx ~old_ctx ~new_ctx:engine.new_ctx inst)
      with
      | `Done d -> (item.key, Ok (d, Budget.spent b))
      | `Exceeded info -> (item.key, Error info.Budget.spent))
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
      let item, _ = engine.items.(i) in
      let disp =
        match found.(i - lo) with
        | Some (d, _) -> d
        | None -> (
            match Lru.find engine.memo item.key with
            | Some (d, _) -> d
            | None -> Hashtbl.find local item.key)
      in
      match disp with
      | Compliance.Migrate ->
          incr migrated;
          Versions.move_instance engine.vs ~id:item.id
            ~to_version:engine.to_version
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

let run_batch_live engine index =
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

let final_digest vs =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (vnum, (i : Instance.t)) ->
      Buffer.add_string buf (string_of_int vnum);
      Buffer.add_char buf ':';
      Buffer.add_string buf i.Instance.id;
      Buffer.add_char buf ':';
      List.iter
        (fun l ->
          Buffer.add_string buf (Label.to_string l);
          Buffer.add_char buf ',')
        i.Instance.trace;
      Buffer.add_char buf '\n')
    (Versions.in_admission_order vs);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let mk_report engine rev_batches =
  {
    to_version = engine.to_version;
    total = Array.length engine.items;
    batch_size = engine.opts.batch_size;
    batches = List.rev rev_batches;
    by_version = Versions.counts engine.vs;
    digest = final_digest engine.vs;
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

(** Rebuild the populated version store a plan describes — pure in the
    plan, so a resuming process reconstructs the exact pre-migration
    state without the journal storing a single trace. *)
let build_plan plan =
  match plan.publics with
  | [] -> invalid_arg "Migrate.build_plan: empty version history"
  | first :: rest ->
      let vs = Versions.create first in
      List.iter (fun p -> ignore (Versions.add_version vs p)) rest;
      List.iter (Population.populate vs) plan.pops;
      vs

let plan_digest plan =
  let buf = Buffer.create 4096 in
  List.iter
    (fun a ->
      Buffer.add_string buf (Serialize.to_string a);
      Buffer.add_char buf '\000')
    plan.publics;
  Buffer.add_string buf (Serialize.to_string plan.target);
  List.iter
    (fun (s : Population.spec) ->
      Buffer.add_string buf
        (Printf.sprintf "\000%d:%d:%d:%d:%s" s.version s.count s.seed s.max_len
           s.prefix))
    plan.pops;
  Buffer.add_string buf
    (Printf.sprintf "\000%d:%s:%d" plan.batch_size
       (match plan.batch_fuel with None -> "-" | Some f -> string_of_int f)
       plan.memo_capacity);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* Journal layout                                                      *)
(* ------------------------------------------------------------------ *)

let plan_file dir = Filename.concat dir "migrate-plan.json"
let journal_path dir = Filename.concat dir "journal.jsonl"
let public_file dir k = Filename.concat dir (Printf.sprintf "public-%03d.afsa" k)
let target_file dir = Filename.concat dir "target.afsa"

let is_journal dir = Sys.file_exists (plan_file dir)

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
  let int k = match Json.member k j with Some (Json.Int i) -> Some i | _ -> None in
  let str k = match Json.member k j with Some (Json.Str s) -> Some s | _ -> None in
  match (int "version", int "count", int "seed", int "max_len", str "prefix") with
  | Some version, Some count, Some seed, Some max_len, Some prefix ->
      Ok { Population.version; count; seed; max_len; prefix }
  | _ -> Error "population spec: missing field"

let write_plan ~dir plan =
  Dir.mkdir_p dir;
  List.iteri
    (fun i a -> Dir.write_atomic (public_file dir (i + 1)) (Serialize.to_string a))
    plan.publics;
  Dir.write_atomic (target_file dir) (Serialize.to_string plan.target);
  let j =
    Json.Obj
      [
        ("rec", Json.Str "migrate-plan");
        ("versions", Json.Int (List.length plan.publics));
        ("batch", Json.Int plan.batch_size);
        ( "batch_fuel",
          match plan.batch_fuel with None -> Json.Null | Some f -> Json.Int f );
        ("memo", Json.Int plan.memo_capacity);
        ("pops", Json.Arr (List.map spec_to_json plan.pops));
        ("digest", Json.Str (plan_digest plan));
      ]
  in
  Dir.write_atomic (plan_file dir) (Json.to_string j)

let read_plan ~dir =
  let ( let* ) = Result.bind in
  if not (Sys.file_exists (plan_file dir)) then
    Error (Printf.sprintf "no migration plan at %s" (plan_file dir))
  else
    let* j = Json.of_string (Dir.read_file (plan_file dir)) in
    let int k = match Json.member k j with Some (Json.Int i) -> Some i | _ -> None in
    let str k = match Json.member k j with Some (Json.Str s) -> Some s | _ -> None in
    match (str "rec", int "versions", int "batch", int "memo", Json.member "pops" j, str "digest") with
    | Some "migrate-plan", Some versions, Some batch, Some memo, Some (Json.Arr pops), Some digest ->
        let batch_fuel =
          match Json.member "batch_fuel" j with
          | Some (Json.Int f) -> Some f
          | _ -> None
        in
        let* pops =
          List.fold_left
            (fun acc p ->
              let* acc = acc in
              let* s = spec_of_json p in
              Ok (s :: acc))
            (Ok []) pops
        in
        let pops = List.rev pops in
        let load path =
          if Sys.file_exists path then Serialize.of_string (Dir.read_file path)
          else Error (Printf.sprintf "missing %s" path)
        in
        let* publics =
          List.fold_left
            (fun acc k ->
              let* acc = acc in
              let* a = load (public_file dir k) in
              Ok (a :: acc))
            (Ok [])
            (List.init versions (fun i -> i + 1))
        in
        let publics = List.rev publics in
        let* target = load (target_file dir) in
        let plan =
          {
            publics;
            target;
            pops;
            batch_size = batch;
            batch_fuel;
            memo_capacity = memo;
          }
        in
        if plan_digest plan <> digest then
          Error (Printf.sprintf "%s: plan digest mismatch" (plan_file dir))
        else Ok plan
    | _ -> Error (Printf.sprintf "%s: malformed plan" (plan_file dir))

(* ------------------------------------------------------------------ *)
(* Checkpoint records                                                  *)
(* ------------------------------------------------------------------ *)

type rec_t =
  | R_start of { digest : string; total : int; batches : int }
  | R_batch of {
      index : int;
      deferred : bool;
      fuel : int;
      migrated : int;
      finishing : int;
      stuck : int;
      hits : int;
      entries : (string * Compliance.disposition * int) list;
    }
  | R_done of { digest : string }

let disp_to_int = function
  | Compliance.Migrate -> 0
  | Compliance.Finish_on_old -> 1
  | Compliance.Stuck -> 2

let disp_of_int = function
  | 0 -> Ok Compliance.Migrate
  | 1 -> Ok Compliance.Finish_on_old
  | 2 -> Ok Compliance.Stuck
  | n -> Error (Printf.sprintf "batch: bad disposition %d" n)

let rec_to_json = function
  | R_start { digest; total; batches } ->
      Json.Obj
        [
          ("rec", Json.Str "start");
          ("digest", Json.Str digest);
          ("total", Json.Int total);
          ("batches", Json.Int batches);
        ]
  | R_batch { index; deferred; fuel; migrated; finishing; stuck; hits; entries }
    ->
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
  | R_done { digest } ->
      Json.Obj [ ("rec", Json.Str "done"); ("digest", Json.Str digest) ]

let rec_of_json j =
  let ( let* ) = Result.bind in
  let int k = match Json.member k j with Some (Json.Int i) -> Some i | _ -> None in
  let str k = match Json.member k j with Some (Json.Str s) -> Some s | _ -> None in
  match str "rec" with
  | Some "start" -> (
      match (str "digest", int "total", int "batches") with
      | Some digest, Some total, Some batches ->
          Ok (R_start { digest; total; batches })
      | _ -> Error "start: missing field")
  | Some "batch" -> (
      match
        ( int "index",
          Json.member "deferred" j,
          int "fuel",
          int "migrated",
          int "finishing",
          int "stuck",
          int "hits",
          Json.member "entries" j )
      with
      | Some index, Some (Json.Bool deferred), Some fuel, Some migrated,
        Some finishing, Some stuck, Some hits, Some (Json.Arr es) ->
          let* entries =
            List.fold_left
              (fun acc e ->
                let* acc = acc in
                match e with
                | Json.Arr [ Json.Str k; Json.Int d; Json.Int f ] ->
                    let* d = disp_of_int d in
                    Ok ((k, d, f) :: acc)
                | _ -> Error "batch: malformed entry")
              (Ok []) es
          in
          Ok
            (R_batch
               {
                 index;
                 deferred;
                 fuel;
                 migrated;
                 finishing;
                 stuck;
                 hits;
                 entries = List.rev entries;
               })
      | _ -> Error "batch: missing field")
  | Some "done" -> (
      match str "digest" with
      | Some digest -> Ok (R_done { digest })
      | _ -> Error "done: missing field")
  | _ -> Error "unknown record type"

let rec_of_outcome index (out : batch_outcome) =
  R_batch
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
  | R_batch rb when rb.index = index ->
      let lo, hi = slice engine index in
      let found, work = lookup_phase engine lo hi in
      if rb.deferred then
        Ok (finish_batch engine ~index ~lo ~hi ~found ~entries:[] ~deferred:true
              ~fuel:rb.fuel)
      else
        let expected = List.map (fun ((it : item), _) -> it.key) work in
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
  | R_batch rb ->
      Error (Printf.sprintf "expected batch %d, journal has %d" index rb.index)
  | _ -> Error (Printf.sprintf "expected batch %d, found another record" index)

(* ------------------------------------------------------------------ *)
(* Journaled run / resume                                              *)
(* ------------------------------------------------------------------ *)

exception Simulated_crash of int
(** Raised by the [crash_after] test hook after that many batches have
    been committed to the journal. *)

type journaled = { report : report; replayed : int }

let run_live engine w ~from_batch ~crash_after rev_batches =
  let batches = ref rev_batches in
  for index = from_batch to num_batches engine - 1 do
    let out = run_batch_live engine index in
    Wal.append w (rec_to_json (rec_of_outcome index out));
    batches := out.b :: !batches;
    match crash_after with
    | Some k when index + 1 = k -> raise (Simulated_crash k)
    | _ -> ()
  done;
  let report = mk_report engine !batches in
  Wal.append w (rec_to_json (R_done { digest = report.digest }));
  report

(** Run a plan under a journal directory. The directory must not
    already hold a migration journal. [crash_after k] raises
    {!Simulated_crash} after committing batch [k] (1-based) — the
    kill-and-resume test hook. *)
let run_journaled ?pool ?crash_after ~dir plan =
  if is_journal dir || Sys.file_exists (journal_path dir) then
    Error
      (Printf.sprintf "%s: migration journal already exists (resume instead)"
         dir)
  else begin
    write_plan ~dir plan;
    let vs = build_plan plan in
    let engine = prepare vs plan.target (options_of_plan ?pool plan) in
    let w = Wal.open_append ~path:(journal_path dir) in
    Fun.protect
      ~finally:(fun () -> Wal.close w)
      (fun () ->
        Wal.append w
          (rec_to_json
             (R_start
                {
                  digest = plan_digest plan;
                  total = Array.length engine.items;
                  batches = num_batches engine;
                }));
        Ok (run_live engine w ~from_batch:0 ~crash_after []))
  end

(** Resume (or verify) a journaled migration: replay the committed
    batches against the rebuilt plan state, then run the remaining
    ones. The final report is byte-identical to an uninterrupted
    run's. *)
let resume ?pool ~dir () =
  let ( let* ) = Result.bind in
  let* plan = read_plan ~dir in
  let* { Wal.records; torn = _; valid_bytes } =
    Wal.read ~path:(journal_path dir) ~decode:rec_of_json
  in
  let vs = build_plan plan in
  let engine = prepare vs plan.target (options_of_plan ?pool plan) in
  let expected_digest = plan_digest plan in
  let* start, rest =
    match records with
    | R_start { digest; total; batches = _ } :: rest ->
        Ok (Some (digest, total), rest)
    | [] -> Ok (None, [])
    | _ :: _ -> Error "journal does not begin with a start record"
  in
  let* () =
    match start with
    | None -> Ok ()
    | Some (digest, total) ->
        if digest <> expected_digest then
          Error "journal belongs to a different plan (start digest mismatch)"
        else if total <> Array.length engine.items then
          Error "journal belongs to a different plan (instance totals diverge)"
        else Ok ()
  in
  let rec replay acc index = function
    | [] -> Ok (acc, index, false)
    | [ R_done _ ] ->
        if index < num_batches engine then
          Error "journal sealed before every batch was committed"
        else Ok (acc, index, true)
    | R_done _ :: _ -> Error "records after the done record"
    | r :: rest ->
        let* out = replay_batch engine index r in
        replay (out.b :: acc) (index + 1) rest
  in
  let* rev_batches, replayed, sealed = replay [] 0 rest in
  if sealed then begin
    let report = mk_report engine rev_batches in
    let* () =
      match List.rev rest with
      | R_done { digest } :: _ when digest <> report.digest ->
          Error "sealed journal digest diverges from the replayed state"
      | _ -> Ok ()
    in
    Ok { report; replayed }
  end
  else begin
    let w =
      if start = None then Wal.open_append ~path:(journal_path dir)
      else Wal.reopen ~path:(journal_path dir) ~valid_bytes
    in
    Fun.protect
      ~finally:(fun () -> Wal.close w)
      (fun () ->
        if start = None then
          Wal.append w
            (rec_to_json
               (R_start
                  {
                    digest = expected_digest;
                    total = Array.length engine.items;
                    batches = num_batches engine;
                  }));
        let report =
          run_live engine w ~from_batch:replayed ~crash_after:None rev_batches
        in
        Ok { report; replayed })
  end
