(* One repetition of a benchmark workload, in a fresh process.

   perfbench/run.py starts this program once per repetition, so the
   memo, intern and formula tables of the engine start cold every time,
   exactly as they do for a freshly started [chorev serve] or
   [chorev migrate]. Subcommands:

     rep        set up, run the timed phase, print one JSON line
     reference  compute the expected outputs (serve oracle, one-shot
                [Versions.publish]) for the same inputs
     recover    restart a durable server on a journal root left by [rep]

   Everything runs on one domain: the pool is pinned to size 1 whatever
   CHOREV_DOMAINS says. Inputs are a pure function of the workload, the
   seed and the size. *)

module C = Chorev
module Server = C.Serve.Server
module Wire = C.Serve.Wire
module Driver = C.Serve.Driver
module Tenant = C.Serve.Tenant
module Engine = C.Migrate.Engine
module Pop = C.Migrate.Population
module Versions = C.Migration.Versions
module Pool = C.Parallel.Pool
module Obs = C.Obs
module Sink = C.Obs.Sink
module Metrics = C.Obs.Metrics
module Memo = C.Cache.Memo
module P = C.Scenario.Procurement
module Sexp = C.Bpel.Sexp
module Process = C.Bpel.Process

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Machine-speed probe                                                 *)
(* ------------------------------------------------------------------ *)

(* A shared 2-vCPU VM (Intel Xeon, 2.0 GHz) runs at speeds up to 2x
   apart, in phases lasting from seconds to minutes, so raw times of
   identical work spread there by 20-30% from run to run. Two fixed
   probes run before and after every timed cycle or phase: [probe]
   streams through 16 MiB the way allocation streams through the minor
   heap, [latency_probe] chases pointers through 32 MiB the way lookups
   in a large hash table do. run.py scales a run's times by each probe's
   nominal duration over the median of every such probe the run took,
   weighted by workload (see PROBE_WEIGHTS there). Neither allocates on
   the OCaml heap, so they neither trigger GC work nor count in the heap
   peak. *)
let probe_area =
  Bigarray.Array1.create Bigarray.int Bigarray.c_layout (2 * 1024 * 1024)

let () = Bigarray.Array1.fill probe_area 0
let probe_pos = ref 0

let probe () =
  let n = Bigarray.Array1.dim probe_area in
  let t0 = now () in
  let p = ref !probe_pos and s = ref 0 in
  for i = 1 to 1_000_000 do
    let k = !p in
    Bigarray.Array1.unsafe_set probe_area k (i + !s);
    if k land 15 = 0 then
      s := !s + Bigarray.Array1.unsafe_get probe_area ((k * 7) land (n - 1));
    p := if k + 1 = n then 0 else k + 1
  done;
  probe_pos := !p;
  ignore (Sys.opaque_identity !s);
  now () -. t0

(* One cycle through all 2^22 slots: slot i holds (a * i + c) mod 2^22,
   a full-period LCG (c odd, a - 1 divisible by 4), so every load depends
   on the one before and no prefetcher can guess the next address. *)
let chase_area =
  let n = 1 lsl 22 in
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set a i (((1_664_525 * i) + 1_013_904_223) land (n - 1))
  done;
  a

let chase_pos = ref 0

let latency_probe () =
  let t0 = now () in
  let p = ref !chase_pos in
  for _ = 1 to 30_000 do
    p := Bigarray.Array1.unsafe_get chase_area !p
  done;
  chase_pos := !p;
  now () -. t0

let probes () =
  let s = probe () in
  (s, latency_probe ())

(* ------------------------------------------------------------------ *)
(* JSON output                                                         *)
(* ------------------------------------------------------------------ *)

type json =
  | F of float
  | I of int
  | S of string
  | A of json list
  | O of (string * json) list

let rec write_json b = function
  | F f ->
      Buffer.add_string b
        (if Float.is_finite f then Printf.sprintf "%.17g" f else "null")
  | I i -> Buffer.add_string b (string_of_int i)
  | S s -> Buffer.add_string b (Printf.sprintf "%S" s)
  | A vs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          write_json b v)
        vs;
      Buffer.add_char b ']'
  | O kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (Printf.sprintf "%S:" k);
          write_json b v)
        kvs;
      Buffer.add_char b '}'

let print_json j =
  let b = Buffer.create 4096 in
  write_json b j;
  print_endline (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Workloads and sizes                                                 *)
(* ------------------------------------------------------------------ *)

type size = { tenants : int; requests : int; instances : int }

let rec take k acc = function
  | l :: rest when k > 0 -> take (k - 1) (l :: acc) rest
  | rest -> (List.rev acc, rest)

(* [small] is the determinism self-test's size. The full sizes keep each
   timed phase several seconds long. *)
let size ~small = function
  | "serve_mixed" ->
      if small then { tenants = 40; requests = 240; instances = 0 }
      else { tenants = 1000; requests = 4000; instances = 0 }
  | "serve_durable" ->
      if small then { tenants = 8; requests = 160; instances = 0 }
      else { tenants = 32; requests = 3400; instances = 0 }
  | "migrate" ->
      if small then { tenants = 0; requests = 0; instances = 4000 }
      else { tenants = 0; requests = 0; instances = 100_000 }
  | w -> invalid_arg ("unknown workload " ^ w)

(* serve_durable's traffic: each tenant's owner alternates between two
   variants of its registered process, each one additive edit with its
   own fresh operation — the steady state of an evolving choreography,
   where the memo absorbs most of the Fig. 4 pipeline and the journal
   does the rest. *)
let durable_script ~tenants ~requests ~seed =
  let rng = Random.State.make [| seed; tenants; requests; 0x6475 |] in
  let id = ref 0 and lines = ref [] in
  let push op =
    incr id;
    lines := Wire.request_to_string { Wire.id = !id; op } :: !lines
  in
  let tenant_name i = Printf.sprintf "d%03d" i in
  let variant i a k =
    let fresh_op = Printf.sprintf "bench_v%d" k in
    let rec attempt s =
      if s >= 64 then failwith "durable_script: no additive site"
      else
        match
          C.Workload.Gen_change.additive ~fresh_op
            ~seed:((104_729 * ((2 * i) + k + 1)) + s)
            a
        with
        | None -> attempt (s + 1)
        | Some op -> (
            match C.Change.Ops.apply op a with
            | Ok p -> Sexp.process_to_string p
            | Error _ -> attempt (s + 1))
    in
    attempt 0
  in
  let shapes =
    Array.init tenants (fun i ->
        let a, b = C.Workload.Gen_process.pair ~seed:i () in
        push
          (Wire.Register
             {
               tenant = tenant_name i;
               processes = [ Sexp.process_to_string a; Sexp.process_to_string b ];
             });
        ( Process.party a,
          [| variant i a 0; variant i a 1 |],
          [| Process.party a; Process.party b |] ))
  in
  let turn = Array.make tenants 0 in
  for j = 0 to requests - 1 do
    let ti = Random.State.int rng tenants in
    let tenant = tenant_name ti in
    let owner, variants, parties = shapes.(ti) in
    match Random.State.int rng 10 with
    | 0 | 1 | 2 ->
        let klass =
          match Random.State.int rng 4 with
          | 0 -> Wire.Interactive
          | 1 -> Wire.Standard
          | _ -> Wire.Bulk
        in
        push
          (Wire.Evolve
             { tenant; owner; changed = variants.(turn.(ti) land 1); klass });
        turn.(ti) <- turn.(ti) + 1
    | 3 | 4 ->
        push
          (Wire.Publish
             {
               tenant;
               party = parties.(Random.State.int rng 2);
               instances = 1 + Random.State.int rng 50;
               seed = j;
             })
    | 5 -> push (Wire.Migrate_status { tenant })
    | _ -> push (Wire.Query { tenant })
  done;
  List.rev !lines

(* The seed interleaves the tenants' request sequences of a fixed
   script, keeping each tenant's own sequence in order. Drawing the whole
   script from the seed made the work of a run swing by a fifth between
   seeds on serve_mixed (each evolve there installs an unrelated random
   process, and a few cost a hundred times the median), and reordering a
   tenant's own requests still by 8%. *)
let interleave ~seed ~tenants lines =
  let regs, rest = take tenants [] lines in
  let queues = Hashtbl.create tenants in
  let order =
    Array.of_list
      (List.map
         (fun l ->
           match Wire.request_of_string l with
           | Ok { Wire.op; _ } ->
               let t = Option.get (Wire.tenant_of op) in
               Queue.add op
                 (match Hashtbl.find_opt queues t with
                 | Some q -> q
                 | None ->
                     let q = Queue.create () in
                     Hashtbl.add queues t q;
                     q);
               t
           | Error (_, e) -> failwith ("script: " ^ e))
         rest)
  in
  let rng = Random.State.make [| seed; tenants; 0x6d78 |] in
  for i = Array.length order - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  regs
  @ List.mapi
      (fun i t ->
        Wire.request_to_string
          { Wire.id = tenants + i + 1; op = Queue.pop (Hashtbl.find queues t) })
      (Array.to_list order)

(* Both serve scripts are generated at seed 42 (serve_mixed's is the
   [scale_serve_mixed] bench row's) and interleaved by the seed. *)
let serve_script ~small workload seed =
  let { tenants; requests; _ } = size ~small workload in
  interleave ~seed ~tenants
    (match workload with
    | "serve_mixed" -> Driver.gen_script ~tenants ~requests ~seed:42 ()
    | _ -> durable_script ~tenants ~requests ~seed:42)

(* [chorev migrate tracking]: buyer v1 and with-cancel v2 migrating onto
   buyer_once, batches of 1,024, memo of 65,536, traces up to 12. *)
let migrate_plan ~small seed =
  let n = (size ~small "migrate").instances in
  let gen = C.Public_gen.public in
  let pop version count seed prefix =
    { Pop.version; count; seed; max_len = 12; prefix }
  in
  {
    Engine.publics = [ gen P.buyer_process; gen P.buyer_with_cancel ];
    target = gen P.buyer_once;
    pops = [ pop 1 (n / 2) seed "a-"; pop 2 (n - (n / 2)) (seed + 1_000_000) "b-" ];
    batch_size = 1024;
    batch_fuel = None;
    memo_capacity = 65_536;
  }

let serve_options journal_root =
  { Server.default_options with jobs = 1; journal_root }

(* ------------------------------------------------------------------ *)
(* Traced runs: self time and allocated words per span path             *)
(* ------------------------------------------------------------------ *)

(* Spans the benchmark opens itself, around the calls it makes. A
   program span below one of them starts a fresh path, so paths read
   like [evolve.round.partner.propagate.apply.public_gen]. *)
let client_spans =
  [ "serve.decode"; "serve.cycle"; "serve.encode"; "migrate.populate";
    "migrate.run"; "migrate.digest" ]

type row = {
  mutable self_s : float;
  mutable incl_s : float;
  mutable calls : int;
  mutable self_w : float;
  top : bool;  (** a program span directly under a client span *)
  leaf : string;
}

type frame = {
  fpath : string;
  client : bool;
  w0 : float;
  mutable child_s : float;
  mutable child_w : float;
}

let path_sink () =
  let rows : (string, row) Hashtbl.t = Hashtbl.create 64 in
  let stack = ref [] in
  let emit = function
    | Sink.Open (sp, _) ->
        let client = List.mem sp.Sink.name client_spans in
        let fpath =
          match !stack with
          | p :: _ when not (p.client || client) -> p.fpath ^ "." ^ sp.Sink.name
          | _ -> sp.Sink.name
        in
        let top =
          match !stack with p :: _ -> p.client && not client | [] -> false
        in
        if not (Hashtbl.mem rows fpath) then
          Hashtbl.add rows fpath
            { self_s = 0.; incl_s = 0.; calls = 0; self_w = 0.; top; leaf = sp.Sink.name };
        stack :=
          { fpath; client; w0 = Gc.minor_words (); child_s = 0.; child_w = 0. }
          :: !stack
    | Sink.Close (_, _, elapsed) -> (
        match !stack with
        | [] -> ()
        | f :: rest ->
            stack := rest;
            let w = Gc.minor_words () -. f.w0 in
            let r = Hashtbl.find rows f.fpath in
            r.self_s <- r.self_s +. elapsed -. f.child_s;
            r.incl_s <- r.incl_s +. elapsed;
            r.calls <- r.calls + 1;
            r.self_w <- r.self_w +. w -. f.child_w;
            match rest with
            | p :: _ ->
                p.child_s <- p.child_s +. elapsed;
                p.child_w <- p.child_w +. w
            | [] -> ())
  in
  ({ Sink.emit; flush = ignore }, rows)

let sorted_rows rows =
  Hashtbl.fold (fun k r acc -> (k, r) :: acc) rows []
  |> List.sort (fun (_, a) (_, b) -> compare b.self_s a.self_s)

(* The human-readable path table goes to stderr; run.py relays it. *)
let print_path_table rows ~wall ~per ~unit_name =
  Printf.eprintf "%-72s %8s %10s %12s %12s\n" "span path" "calls"
    ("self ms/" ^ unit_name) "self words" "share";
  List.iter
    (fun (path, r) ->
      Printf.eprintf "%-72s %8d %10.4f %12.0f %11.2f%%\n" path r.calls
        (r.self_s *. 1000. /. per) r.self_w (100. *. r.self_s /. wall))
    (sorted_rows rows)

let self_by_leaf rows leaf =
  Hashtbl.fold
    (fun _ r acc -> if r.leaf = leaf then acc +. r.self_s else acc)
    rows 0.

(* Program spans whose self time is reported under their own name; every
   other program span lands in [engine.other.self_ms], so the rows sum to
   the timed wall time. *)
let named_spans =
  [ ("evolve", "choreography.evolve"); ("round", "choreography.round");
    ("regenerate", "choreography.regenerate");
    ("partner", "choreography.partner");
    ("consistency.check_all", "choreography.consistency.check_all");
    ("classify", "change.classify"); ("propagate", "propagate.propagate");
    ("view", "propagate.view"); ("delta", "propagate.delta");
    ("localize", "propagate.localize"); ("suggest", "propagate.suggest");
    ("apply", "propagate.apply"); ("re-check", "propagate.re-check");
    ("witness", "propagate.witness"); ("public_gen", "mapping.public_gen") ]

let counter name =
  Option.value ~default:0 (List.assoc_opt name (Metrics.counters ()))

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let memo_snapshot () =
  List.map
    (fun (name, (st : C.Cache.Lru.stats)) -> (name, (st.hits, st.misses)))
    (Memo.stats ())

let memo_ratios before after =
  List.map
    (fun (name, (h1, m1)) ->
      let h0, m0 = Option.value ~default:(0, 0) (List.assoc_opt name before) in
      let h = h1 - h0 and m = m1 - m0 in
      (Printf.sprintf "cache.memo.%s.hit_ratio" name, F (ratio h (h + m))))
    after

(* ------------------------------------------------------------------ *)
(* Measurement helpers                                                 *)
(* ------------------------------------------------------------------ *)

let gc_delta (a : Gc.stat) (b : Gc.stat) =
  [
    ("minor_words", F (b.minor_words -. a.minor_words));
    ("major_words", F (b.major_words -. a.major_words));
    ("major_collections", I (b.major_collections - a.major_collections));
  ]

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

let hex_digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* Files, bytes and WAL records (lines of the .jsonl logs) under a
   journal root. *)
let journal_stats root =
  let count_lines path =
    let ic = open_in_bin path in
    let n = ref 0 in
    (try
       while true do
         ignore (input_line ic);
         incr n
       done
     with End_of_file -> ());
    close_in ic;
    !n
  in
  let rec walk dir acc =
    Array.fold_left
      (fun (files, bytes, records) name ->
        let p = Filename.concat dir name in
        let st = Unix.lstat p in
        match st.Unix.st_kind with
        | Unix.S_DIR -> walk p (files, bytes, records)
        | Unix.S_REG ->
            ( files + 1,
              bytes + st.Unix.st_size,
              records
              + if Filename.check_suffix name ".jsonl" then count_lines p else 0 )
        | _ -> (files, bytes, records))
      acc (Sys.readdir dir)
  in
  match root with None -> (0, 0, 0) | Some r -> walk r (0, 0, 0)

(* ------------------------------------------------------------------ *)
(* Serve                                                               *)
(* ------------------------------------------------------------------ *)

type item = Req of Wire.request | Bad of int * string

type cycle = { wall : float; probes_after : float * float }

(* The closed-loop client, as pipe mode runs when its input is full:
   decode the next [batch] lines, run one scheduler cycle, encode the
   responses, then send the next batch. Returns the probes taken before
   the first cycle and, per cycle, its wall time and the probes taken
   after it. Probes run between cycles, outside every cycle's wall
   time. *)
let drive server lines (out : (Wire.response * string) list ref) =
  let batch = Server.default_options.Server.batch in
  let rec go cycles = function
    | [] -> List.rev cycles
    | lines ->
        let t0 = now () in
        let chunk, rest = take batch [] lines in
        let items =
          Obs.span "serve.decode" (fun () ->
              List.map
                (fun l ->
                  match Wire.request_of_string l with
                  | Ok r -> Req r
                  | Error (id, msg) -> Bad (id, msg))
                chunk)
        in
        let resps =
          Obs.span "serve.cycle" (fun () ->
              Server.cycle server
                (List.filter_map (function Req r -> Some r | Bad _ -> None) items))
        in
        Obs.span "serve.encode" (fun () ->
            let pending = ref resps in
            List.iter
              (fun item ->
                let resp =
                  match (item, !pending) with
                  | Bad (id, msg), _ -> { Wire.id; result = Error (`Bad_request msg) }
                  | Req _, r :: tl ->
                      pending := tl;
                      r
                  | Req _, [] -> failwith "server returned too few responses"
                in
                out := (resp, Wire.response_to_string resp) :: !out)
              items);
        let wall = now () -. t0 in
        go ({ wall; probes_after = probes () } :: cycles) rest
  in
  let first = probes () in
  (first, go [] lines)

let cycles_json ((stream, latency), cycles) =
  O
    [
      ("probe_before", F stream);
      ("latency_before", F latency);
      ("wall", A (List.map (fun c -> F c.wall) cycles));
      ("probe_after", A (List.map (fun c -> F (fst c.probes_after)) cycles));
      ("latency_after", A (List.map (fun c -> F (snd c.probes_after)) cycles));
    ]

let sum_wall (_, cycles) = List.fold_left (fun acc c -> acc +. c.wall) 0. cycles

let failed (r : Wire.response) =
  match r.Wire.result with
  | Error _ -> true
  | Ok (Wire.Evolved { degraded; _ }) -> degraded
  | Ok _ -> false

let tenants_of_script lines =
  List.filter_map
    (fun l ->
      match Wire.request_of_string l with
      | Ok { Wire.op = Wire.Register { tenant; _ }; _ } -> Some tenant
      | _ -> None)
    lines

(* Every tenant's query answer, digested: the live/recovered comparison. *)
let query_digest server tenants =
  hex_digest
    (List.map
       (fun tenant ->
         Wire.response_to_string
           (Server.handle server { Wire.id = 0; op = Wire.Query { tenant } }))
       tenants)

(* [Server.create] plus every registration of the script. *)
let serve_setup ~small ~journal workload seed out =
  let lines = serve_script ~small workload seed in
  let tenants = tenants_of_script lines in
  let regs, timed = take (List.length tenants) [] lines in
  let t0 = now () in
  let server = Server.create ~options:(serve_options journal) () in
  let create_s = now () -. t0 in
  let setup = drive server regs out in
  (server, tenants, timed, create_s +. sum_wall setup, setup)

let serve_rep ~small ~trace ~journal workload seed =
  let out = ref [] in
  let server, tenants, timed, setup_s, setup =
    serve_setup ~small ~journal workload seed out
  in
  let files0, bytes0, records0 = journal_stats journal in
  let sink, rows = path_sink () in
  let memo0 = memo_snapshot () in
  if trace then begin
    Metrics.reset ();
    Metrics.enabled := true;
    Obs.set_sink sink
  end;
  let gc0 = Gc.quick_stat () in
  let run = drive server timed out in
  let wall = sum_wall run in
  let gc1 = Gc.quick_stat () in
  Obs.set_sink Sink.silent;
  Metrics.enabled := false;
  let heap = heap_peak_mb () in
  let memo1 = memo_snapshot () in
  let responses = List.rev !out in
  let n = List.length timed in
  let files1, bytes1, records1 = journal_stats journal in
  let lat =
    List.filter (fun (kind, _) -> kind <> "register") (Server.latencies_us server)
  in
  (* execution times in microseconds, oldest first *)
  let lat_json =
    List.map
      (fun (kind, s) -> (kind, A (List.rev_map (fun x -> F x) (Array.to_list s))))
      lat
  in
  let per_req x = x /. float_of_int n in
  let layers =
    if not trace then []
    else begin
      let self_ms s = F (s *. 1000. /. float_of_int n) in
      let client_self name =
        match Hashtbl.find_opt rows name with Some r -> r.self_s | None -> 0.
      in
      let cycle_incl =
        match Hashtbl.find_opt rows "serve.cycle" with Some r -> r.incl_s | None -> 0.
      in
      (* Program spans directly under a cycle all belong to evolve
         requests: query, migrate-status and publish open no span. *)
      let engine_top =
        Hashtbl.fold (fun _ r acc -> if r.top then acc +. r.incl_s else acc) rows 0.
      in
      let exec kind =
        match List.assoc_opt kind lat with
        | Some s -> Array.fold_left ( +. ) 0. s /. 1e6
        | None -> 0.
      in
      let exec_total =
        List.fold_left (fun acc (k, _) -> acc +. exec k) 0. lat
      in
      let named = List.map fst named_spans in
      let other =
        Hashtbl.fold
          (fun _ r acc ->
            if List.mem r.leaf named || List.mem r.leaf client_spans then acc
            else acc +. r.self_s)
          rows 0.
      in
      let public_gen_in_apply =
        Hashtbl.fold
          (fun path r acc ->
            if
              r.leaf = "public_gen"
              && List.mem "apply" (String.split_on_char '.' path)
            then acc +. r.self_s
            else acc)
          rows 0.
      in
      let spans_total =
        Hashtbl.fold (fun _ r acc -> acc +. r.self_s) rows 0.
      in
      print_path_table rows ~wall ~per:(float_of_int n) ~unit_name:"req";
      let c = counter in
      [
        ("serve.decode.self_ms", self_ms (client_self "serve.decode"));
        ("serve.encode.self_ms", self_ms (client_self "serve.encode"));
        ("serve.cycle.self_ms", self_ms (cycle_incl -. exec_total));
        ("serve.exec.evolve.self_ms", self_ms (exec "evolve" -. engine_top));
        ("serve.exec.query.self_ms", self_ms (exec "query"));
        ("serve.exec.publish.self_ms", self_ms (exec "publish"));
        ("serve.exec.migrate-status.self_ms", self_ms (exec "migrate-status"));
        ("bench.client.self_ms", self_ms (wall -. spans_total));
      ]
      @ List.map
          (fun (leaf, metric) -> (metric ^ ".self_ms", self_ms (self_by_leaf rows leaf)))
          named_spans
      @ [
          ("mapping.public_gen.apply.self_ms", self_ms public_gen_in_apply);
          ("engine.other.self_ms", self_ms other);
          ( "evolution.rounds_per_evolve",
            F
              (ratio (c "evolution.rounds")
                 (match List.assoc_opt "evolve" lat with
                 | Some s -> Array.length s
                 | None -> 0)) );
          ( "change.classify.variant_ratio",
            F (ratio (c "change.classify.variant") (c "change.classify.runs")) );
          ( "propagate.applied_per_retry",
            F (ratio (c "propagate.suggestions.applied") (c "propagate.retries")) );
          ("propagate.resynthesized", F (per_req (float_of_int (c "propagate.resynthesized"))));
          ( "mapping.public_gen.calls_per_propagation",
            F (ratio (c "mapping.public_gen.runs") (c "propagate.runs")) );
        ]
      @ List.map
          (fun name -> (name, F (per_req (float_of_int (c name)))))
          [ "afsa.product.pairs"; "afsa.product.edges"; "afsa.emptiness.iterations";
            "afsa.minimize.runs"; "afsa.pack.builds"; "cache.evict";
            "guard.fuel_spent"; "guard.exceeded_total" ]
      @ memo_ratios memo0 memo1
      @ [
          ( "cache.steps.hit_ratio",
            let totals = Tenant.cache_totals (Server.store server) in
            let get k = Option.value ~default:0 (List.assoc_opt k totals) in
            F (ratio (get "steps.hits") (get "steps.hits" + get "steps.misses")) );
          (* exact counts for the determinism self-test *)
          ("count.guard.fuel_spent", I (c "guard.fuel_spent"));
          ("count.public_gen.runs", I (c "mapping.public_gen.runs"));
          ("count.cache.hit", I (c "cache.hit"));
          ("count.cache.miss", I (c "cache.miss"));
        ]
    end
  in
  O
    [
      ("workload", S workload);
      ("seed", I seed);
      ("tenants", I (List.length tenants));
      ("requests", I n);
      ("setup_s", F setup_s);
      ("timed_s", F wall);
      ("setup_cycles", cycles_json setup);
      ("cycles", cycles_json run);
      ("heap_peak_mb", F heap);
      ("digest", S (hex_digest (List.map snd responses)));
      ("lines", I (List.length responses));
      ("failed", I (List.length (List.filter (fun (r, _) -> failed r) responses)));
      ( "query_digest",
        S (if journal = None then "" else query_digest server tenants) );
      ("lat", O lat_json);
      ("gc", O (gc_delta gc0 gc1));
      ( "journal",
        O
          [
            ("files", I (files1 - files0));
            ("bytes", I (bytes1 - bytes0));
            ("records", I (records1 - records0));
          ] );
      ("layers", O layers);
    ]

let serve_reference ~small workload seed =
  let lines = serve_script ~small workload seed in
  let expected = Driver.oracle lines in
  O [ ("digest", S (hex_digest expected)); ("lines", I (List.length expected)) ]

let serve_recover ~small workload seed journal =
  let tenants = tenants_of_script (serve_script ~small workload seed) in
  let t0 = now () in
  let server = Server.create ~options:(serve_options (Some journal)) () in
  let recover_s = now () -. t0 in
  O
    [
      ("recover_s", F recover_s);
      ("recovered", I (Server.recovered server));
      ("query_digest", S (query_digest server tenants));
    ]

(* ------------------------------------------------------------------ *)
(* Migrate                                                             *)
(* ------------------------------------------------------------------ *)

let migrate_rep ~small ~trace seed =
  let plan = migrate_plan ~small seed in
  let options = Engine.options_of_plan ~pool:Pool.sequential plan in
  let sink, rows = path_sink () in
  if trace then Obs.set_sink sink;
  let p0 = probes () in
  let t0 = now () in
  let vs = Obs.span "migrate.populate" (fun () -> Engine.build_plan plan) in
  let setup_s = now () -. t0 in
  let p1 = probes () in
  let gc0 = Gc.quick_stat () in
  let t1 = now () in
  let report = Obs.span "migrate.run" (fun () -> Engine.run ~options vs plan.Engine.target) in
  let run_s = now () -. t1 in
  let gc1 = Gc.quick_stat () in
  let p2 = probes () in
  let heap = heap_peak_mb () in
  (* the assignment digest alone, which [Engine.run] also computes *)
  let digest_s =
    if trace then begin
      let t = now () in
      ignore (Obs.span "migrate.digest" (fun () -> Engine.final_digest vs));
      now () -. t
    end
    else 0.
  in
  Obs.set_sink Sink.silent;
  let migrated, finishing, stuck, fresh, hits, fuel = Engine.totals report in
  let deferred =
    List.fold_left (fun n (b : Engine.batch) -> n + b.Engine.size) 0
      (Engine.deferred_batches report)
  in
  let total = report.Engine.total in
  let layers =
    if not trace then []
    else begin
      let wall = setup_s +. run_s +. digest_s in
      let per_k = float_of_int total /. 1000. in
      let self name =
        match Hashtbl.find_opt rows name with Some r -> r.self_s | None -> 0.
      in
      let spans_total = Hashtbl.fold (fun _ r acc -> acc +. r.self_s) rows 0. in
      print_path_table rows ~wall ~per:per_k ~unit_name:"1k inst";
      [
        ("migrate.populate.self_ms", F (self "migrate.populate" *. 1000. /. per_k));
        ("migrate.run.self_ms", F (self "migrate.run" *. 1000. /. per_k));
        ("migrate.digest.self_ms", F (self "migrate.digest" *. 1000. /. per_k));
        ("bench.client.self_ms", F ((wall -. spans_total) *. 1000. /. per_k));
        ("migrate.fresh", I fresh);
        ("migrate.memo_hit_ratio", F (ratio hits (hits + fresh)));
        ("migrate.fuel", I fuel);
      ]
    end
  in
  O
    [
      ("workload", S "migrate");
      ("seed", I seed);
      ("instances", I total);
      ("setup_s", F setup_s);
      ("timed_s", F run_s);
      ("probes", A (List.map (fun p -> F (fst p)) [ p0; p1; p2 ]));
      ("latencies", A (List.map (fun p -> F (snd p)) [ p0; p1; p2 ]));
      ("heap_peak_mb", F heap);
      ("digest", S report.Engine.digest);
      ("migrated", I migrated);
      ("finishing", I finishing);
      ("stuck", I stuck);
      ("fresh", I fresh);
      ("hits", I hits);
      ("fuel", I fuel);
      ("failed", I deferred);
      ("gc", O (gc_delta gc0 gc1));
      ("layers", O layers);
    ]

(* The reference the migrator must agree with: a one-shot
   [Versions.publish] over the same plan (what test_migrate asserts). *)
let migrate_reference ~small seed =
  let plan = migrate_plan ~small seed in
  let vs = Engine.build_plan plan in
  let pub = Versions.publish vs plan.Engine.target in
  O
    [
      ("digest", S (Engine.final_digest vs));
      ("migrated", I (List.length pub.Versions.migrated));
      ("finishing", I (List.length pub.Versions.finishing_on_old));
      ("stuck", I (List.length pub.Versions.stuck));
    ]

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  Pool.set_default_size 1;
  let workload = ref "" and seed = ref 42 and small = ref false in
  let trace = ref false and journal = ref None and cmd = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--small", Arg.Set small, " self-test sizes");
      ("--trace", Arg.Set trace, " traced repetition");
      ("--journal", Arg.String (fun d -> journal := Some d), "DIR journal root");
    ]
    (fun a -> cmd := a)
    "bench (rep|reference|recover|info) --workload NAME --seed N";
  let small = !small and seed = !seed and w = !workload in
  let serve = w = "serve_mixed" || w = "serve_durable" in
  let result =
    match !cmd with
    | "info" ->
        O
          [
            ("ocaml", S Sys.ocaml_version);
            ("pool_size", I (Pool.size (Pool.default ())));
            ("word_size", I Sys.word_size);
          ]
    | "rep" when serve -> serve_rep ~small ~trace:!trace ~journal:!journal w seed
    | "rep" when w = "migrate" -> migrate_rep ~small ~trace:!trace seed
    | "reference" when serve -> serve_reference ~small w seed
    | "reference" when w = "migrate" -> migrate_reference ~small seed
    | "recover" when w = "serve_durable" && !journal <> None ->
        serve_recover ~small w seed (Option.get !journal)
    | c ->
        prerr_endline ("bench: bad command or workload: " ^ c ^ " " ^ w);
        exit 2
  in
  print_json result
