(* The cycle scheduler — see server.mli for the determinism contract. *)

module Pool = Chorev_parallel.Pool
module Config = Chorev_config.Config
module Metrics = Chorev_obs.Metrics
module Sexp = Chorev_bpel.Sexp
module Json = Chorev_wal.Json

type options = {
  shards : int;
  queue_capacity : int;
  batch : int;
  headroom : int option;
  jobs : int;
  journal_root : string option;
  config : Config.t;
}

let default_options =
  {
    shards = 8;
    queue_capacity = 256;
    batch = 256;
    headroom = None;
    jobs = 0;
    journal_root = None;
    config = Config.default;
  }

(* Metrics (DESIGN.md §7: layer.module.what). *)
let m_requests = Metrics.counter "serve.requests"
let m_shed = Metrics.counter "serve.shed"
let m_errors = Metrics.counter "serve.errors"
let m_cycles = Metrics.counter "serve.cycles"
let m_queue = Metrics.histogram "serve.queue.depth"

type t = {
  opts : options;
  store : Tenant.t;
  recovered : int;
  mutable served : int;
  mutable shed : int;
  mutable errors : int;
  mutable cycles : int;
  mutable max_queue : int;
  lat_mu : Mutex.t;
  lat : (string, float list ref) Hashtbl.t;
      (** per-op latency samples, microseconds (newest first) *)
}

let create ?(options = default_options) () =
  let store, recovered =
    match options.journal_root with
    | Some root when Sys.file_exists root -> (
        match
          Tenant.recover ~shards:options.shards ~config:options.config
            ~journal_root:root ()
        with
        | Ok recovered -> recovered
        | Error e -> invalid_arg e)
    | Some root -> (Tenant.create ~shards:options.shards ~journal_root:root (), 0)
    | None -> (Tenant.create ~shards:options.shards (), 0)
  in
  {
    opts = options;
    store;
    recovered;
    served = 0;
    shed = 0;
    errors = 0;
    cycles = 0;
    max_queue = 0;
    lat_mu = Mutex.create ();
    lat = Hashtbl.create 8;
  }

let recovered t = t.recovered
let store t = t.store

let op_kind : Wire.op -> string = function
  | Wire.Register _ -> "register"
  | Wire.Evolve _ -> "evolve"
  | Wire.Query _ -> "query"
  | Wire.Migrate_status _ -> "migrate-status"
  | Wire.Publish _ -> "publish"
  | Wire.Stats -> "stats"

let record_latency t kind us =
  Mutex.protect t.lat_mu (fun () ->
      match Hashtbl.find_opt t.lat kind with
      | Some samples -> samples := us :: !samples
      | None -> Hashtbl.add t.lat kind (ref [ us ]))

let percentile samples p =
  let n = Array.length samples in
  if n = 0 then 0.
  else begin
    let sorted = Array.copy samples in
    Array.sort compare sorted;
    let rank = int_of_float (ceil (p *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))
  end

let latencies_us t =
  Mutex.protect t.lat_mu (fun () ->
      Hashtbl.fold
        (fun kind samples acc -> (kind, Array.of_list !samples) :: acc)
        t.lat [])
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Request execution                                                   *)
(* ------------------------------------------------------------------ *)

let parse_process s =
  match Sexp.process_of_string s with
  | Ok p -> Ok p
  | Error e -> Error (`Bad_request ("process: " ^ e))

let rec parse_processes = function
  | [] -> Ok []
  | s :: rest -> (
      match parse_process s with
      | Error _ as e -> e
      | Ok p -> (
          match parse_processes rest with
          | Ok ps -> Ok (p :: ps)
          | Error _ as e -> e))

let stats_fields t =
  let lat_fields =
    List.concat_map
      (fun (kind, samples) ->
        List.map
          (fun (tag, p) ->
            ( Printf.sprintf "lat.%s.%s_us" kind tag,
              Json.Int (int_of_float (percentile samples p)) ))
          [ ("p50", 0.5); ("p95", 0.95); ("p99", 0.99) ])
      (latencies_us t)
  in
  [
    ("tenants", Json.Int (Tenant.count t.store));
    ( "registry",
      Json.Int (Chorev_discovery.Registry.size (Tenant.registry t.store)) );
    ("recovered", Json.Int t.recovered);
    ("requests", Json.Int t.served);
    ("shed", Json.Int t.shed);
    ("errors", Json.Int t.errors);
    ("cycles", Json.Int t.cycles);
    ("max_queue", Json.Int t.max_queue);
  ]
  @ lat_fields
  @ List.map
      (fun (k, v) -> ("cache." ^ k, Json.Int v))
      (Tenant.cache_totals t.store)

let exec t (r : Wire.request) : Wire.response =
  let t0 = Unix.gettimeofday () in
  let result =
    match r.op with
    | Wire.Register { tenant; processes } -> (
        match parse_processes processes with
        | Error _ as e -> e
        | Ok ps -> Tenant.register t.store tenant ~processes:ps)
    | Wire.Evolve { tenant; owner; changed; klass } -> (
        match parse_process changed with
        | Error _ as e -> e
        | Ok changed ->
            let op_budget, round_budget = Wire.class_budgets klass in
            let config =
              Config.with_budgets ~op_budget ~round_budget t.opts.config
            in
            Tenant.evolve t.store ~config tenant ~owner ~changed)
    | Wire.Query { tenant } -> Tenant.query t.store tenant
    | Wire.Migrate_status { tenant } -> Tenant.migrate_status t.store tenant
    | Wire.Publish { tenant; party; instances; seed } ->
        Tenant.publish t.store tenant ~party ~instances ~seed
    | Wire.Stats -> Ok (Wire.Stats_snapshot (stats_fields t))
  in
  record_latency t (op_kind r.op) ((Unix.gettimeofday () -. t0) *. 1e6);
  { Wire.id = r.id; result }

(* ------------------------------------------------------------------ *)
(* The cycle                                                           *)
(* ------------------------------------------------------------------ *)

let cycle t reqs =
  t.cycles <- t.cycles + 1;
  Metrics.incr m_cycles;
  let reqs = Array.of_list reqs in
  let n = Array.length reqs in
  t.max_queue <- max t.max_queue n;
  Metrics.observe m_queue (float_of_int n);
  let out : Wire.response option array = Array.make n None in
  let cap = t.opts.queue_capacity in
  let headroom = min cap (Option.value ~default:cap t.opts.headroom) in
  (* Admission, in arrival order. Deadline-bearing classes get the
     smaller [headroom] bound: past it, their declared deadline has no
     chance against the queue ahead of them, so they are shed up front
     rather than admitted to fail. Purely positional — no clocks — so
     shedding is deterministic under a seeded arrival order. *)
  let admitted = ref 0 in
  Array.iteri
    (fun i (r : Wire.request) ->
      let bound =
        match r.op with
        | Wire.Evolve { klass; _ } when Wire.class_has_deadline klass -> headroom
        | _ -> cap
      in
      if !admitted >= bound then
        out.(i) <- Some { Wire.id = r.id; result = Error `Overloaded }
      else incr admitted)
    reqs;
  (* Pass 1 (coordinator, arrival order): registrations and Stats run
     here — registry ids are minted in stream order — and tenant ops
     are grouped; a tenant unknown at this point in the stream is
     refused exactly as the sequential server would refuse it. *)
  let groups : (string, (int * Wire.request) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let group_order = ref [] in
  Array.iteri
    (fun i (r : Wire.request) ->
      if out.(i) = None then
        match Wire.tenant_of r.op with
        | None -> out.(i) <- Some (exec t r)
        | Some tenant -> (
            match r.op with
            | Wire.Register _ -> out.(i) <- Some (exec t r)
            | _ when not (Tenant.exists t.store tenant) ->
                out.(i) <-
                  Some { Wire.id = r.id; result = Error (`Unknown_tenant tenant) }
            | _ -> (
                match Hashtbl.find_opt groups tenant with
                | Some g -> g := (i, r) :: !g
                | None ->
                    Hashtbl.add groups tenant (ref [ (i, r) ]);
                    group_order := tenant :: !group_order)))
    reqs;
  (* Pass 2: one pool task per tenant, each group in arrival order. *)
  let pool =
    if t.opts.jobs = 0 then Pool.default () else Pool.sized t.opts.jobs
  in
  let work =
    List.rev_map
      (fun tenant -> List.rev !(Hashtbl.find groups tenant))
      !group_order
  in
  Pool.map ~pool (List.map (fun (i, r) -> (i, exec t r))) work
  |> List.iter (List.iter (fun (i, resp) -> out.(i) <- Some resp));
  let responses =
    Array.to_list out
    |> List.mapi (fun i -> function
         | Some resp -> resp
         | None -> { Wire.id = reqs.(i).Wire.id; result = Error (`Failed "lost") })
  in
  (* Book-keeping on the coordinator only: no racy increments. *)
  List.iter
    (fun (resp : Wire.response) ->
      match resp.result with
      | Ok _ -> t.served <- t.served + 1
      | Error `Overloaded ->
          t.shed <- t.shed + 1;
          t.served <- t.served + 1
      | Error _ ->
          t.errors <- t.errors + 1;
          Metrics.incr m_errors;
          t.served <- t.served + 1)
    responses;
  Metrics.add m_requests n;
  Metrics.add m_shed (n - !admitted);
  responses

let handle t r = match cycle t [ r ] with [ resp ] -> resp | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Pipe mode                                                           *)
(* ------------------------------------------------------------------ *)

type item = R of Wire.request | B of int * string

(* The lines of [ic] without their newline, in 64 KiB chunks; one over
   [Wire.max_line] is never held whole and reads as its error. *)
let line_reader ic =
  let chunk = Bytes.create 65536 and pos = ref 0 and len = ref 0 in
  let line = Buffer.create 4096 in
  let rec eol i =
    if i = !len || Bytes.get chunk i = '\n' then i else eol (i + 1)
  in
  let rec next over =
    if !pos = !len then begin
      len := input ic chunk 0 (Bytes.length chunk);
      pos := 0
    end;
    let stop = eol !pos in
    let over = over || Buffer.length line + stop - !pos > Wire.max_line in
    if not over then Buffer.add_subbytes line chunk !pos (stop - !pos);
    pos := min !len (stop + 1);
    if stop = !len && !len > 0 then next over
    else if !len = 0 && (not over) && Buffer.length line = 0 then None
    else begin
      let l = Buffer.contents line in
      Buffer.clear line;
      Some (if over then Error Wire.line_too_long else Ok l)
    end
  in
  fun () -> next false

let run_pipe t ic oc =
  let served = ref 0 in
  let next_line = line_reader ic in
  let rec read_cycle k acc =
    if k = 0 then (List.rev acc, false)
    else
      match next_line () with
      | None -> (List.rev acc, true)
      | Some (Ok line) when Wire.blank line -> read_cycle k acc
      | Some line -> (
          match Result.bind line Wire.request_of_string with
          | Ok r -> read_cycle (k - 1) (R r :: acc)
          | Error (id, msg) -> read_cycle (k - 1) (B (id, msg) :: acc))
  in
  let rec loop () =
    let items, eof = read_cycle t.opts.batch [] in
    if items <> [] then begin
      let resps =
        ref (cycle t (List.filter_map (function R r -> Some r | B _ -> None) items))
      in
      List.iter
        (fun item ->
          let resp =
            match item with
            | B (id, msg) ->
                t.errors <- t.errors + 1;
                { Wire.id; result = Error (`Bad_request msg) }
            | R _ -> (
                match !resps with
                | resp :: rest ->
                    resps := rest;
                    resp
                | [] -> assert false)
          in
          output_string oc (Wire.response_to_string resp);
          output_char oc '\n')
        items;
      flush oc;
      served := !served + List.length items
    end;
    if eof then !served else loop ()
  in
  loop ()
