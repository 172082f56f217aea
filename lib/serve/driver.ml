(* Script generation, the sequential oracle, and the replay driver. *)

module Model = Chorev_choreography.Model
module Evolution = Chorev_choreography.Evolution
module Consistency = Chorev_choreography.Consistency
module Registry = Chorev_discovery.Registry
module Evolve = Chorev_journal.Evolve
module Sexp = Chorev_bpel.Sexp
module Gen_process = Chorev_workload.Gen_process
module Config = Chorev_config.Config

(* ------------------------------------------------------------------ *)
(* Script generation                                                   *)
(* ------------------------------------------------------------------ *)

let gen_script ?(tenants = 16) ?(requests = 128) ?(seed = 42) () =
  let rng = Random.State.make [| seed; tenants; requests |] in
  let tenant_name i = Printf.sprintf "t%04d" i in
  let lines = ref [] in
  let id = ref 0 in
  let push op =
    incr id;
    lines := Wire.request_to_string { Wire.id = !id; op } :: !lines
  in
  let party_names = Array.make tenants [||] in
  for i = 0 to tenants - 1 do
    let a, b = Gen_process.pair ~seed:(seed + i) () in
    party_names.(i) <-
      [| Chorev_bpel.Process.party a; Chorev_bpel.Process.party b |];
    push
      (Wire.Register
         {
           tenant = tenant_name i;
           processes = [ Sexp.process_to_string a; Sexp.process_to_string b ];
         })
  done;
  for j = 0 to requests - 1 do
    let ti = Random.State.int rng tenants in
    let tenant = tenant_name ti in
    match Random.State.int rng 10 with
    | 0 | 1 ->
        (* 20% evolutions, spread over the request classes *)
        let klass =
          match Random.State.int rng 4 with
          | 0 -> Wire.Interactive
          | 1 -> Wire.Standard
          | _ -> Wire.Bulk
        in
        let a, _ = Gen_process.pair ~seed:(seed + (7919 * (j + 1))) () in
        push
          (Wire.Evolve
             {
               tenant;
               owner = Chorev_bpel.Process.party a;
               changed = Sexp.process_to_string a;
               klass;
             })
    | 2 | 3 -> push (Wire.Migrate_status { tenant })
    | 4 ->
        (* 10% publishes: seed a small population and migrate it *)
        let names = party_names.(ti) in
        let party = names.(Random.State.int rng (Array.length names)) in
        push
          (Wire.Publish
             { tenant; party; instances = 1 + Random.State.int rng 50; seed = j })
    | _ -> push (Wire.Query { tenant })
  done;
  List.rev !lines

(* ------------------------------------------------------------------ *)
(* The sequential oracle                                               *)
(* ------------------------------------------------------------------ *)

(* A from-scratch interpretation of the protocol over [Evolution.run]:
   no store, no shards, no pool, no cycles. The server must reproduce
   these lines byte-for-byte (when nothing is shed); sharing only the
   [Wire] encoders keeps the comparison about scheduling, not about
   two copies of one encoder. *)

type otenant = {
  mutable model : Model.t;
  mutable evolutions : int;
  mutable consistent : bool;
  migrate : Parties.t;
      (* the same deterministic population engine the server uses —
         the oracle stays independent in its *scheduling*, not by
         re-implementing the migrator *)
}

let oracle lines =
  let registry = Registry.create () in
  let tenants : (string, otenant) Hashtbl.t = Hashtbl.create 64 in
  let advertise name (tn : otenant) =
    List.map
      (fun party ->
        Registry.register registry ~name:(name ^ "/" ^ party) ~party
          (Model.public tn.model party))
      (Model.parties tn.model)
  in
  let statuses name (tn : otenant) =
    List.filter_map
      (fun party ->
        Option.map
          (fun (e : Registry.entry) ->
            {
              Wire.party;
              service = e.Registry.id;
              version = e.Registry.version;
              running = Parties.running tn.migrate party;
              schemas = Parties.schemas tn.migrate party;
            })
          (Registry.find_by_name registry (name ^ "/" ^ party)))
      (Model.parties tn.model)
  in
  let exec : Wire.op -> (Wire.body, Wire.error) result = function
    | Wire.Register { tenant; processes } -> (
        if Hashtbl.mem tenants tenant then Error (`Duplicate_tenant tenant)
        else
          let rec parse = function
            | [] -> Ok []
            | s :: rest -> (
                match Sexp.process_of_string s with
                | Error e -> Error (`Bad_request ("process: " ^ e))
                | Ok p -> Result.map (fun ps -> p :: ps) (parse rest))
          in
          match parse processes with
          | Error _ as e -> e
          | Ok ps -> (
              match Model.of_processes ps with
              | exception Invalid_argument e | exception Failure e ->
                  Error (`Invalid_model e)
              | model ->
                  let issues =
                    match Model.validate model with
                    | Ok () -> []
                    | Error issues -> issues
                  in
                  if
                    List.exists
                      (fun i -> Model.issue_severity i = `Error)
                      issues
                  then
                    Error
                      (`Invalid_model
                         (Fmt.str "%a"
                            (Fmt.list ~sep:(Fmt.any "; ") Model.pp_issue)
                            issues))
                  else begin
                    let tn =
                      {
                        model;
                        evolutions = 0;
                        consistent = Consistency.consistent model;
                        migrate = Parties.create model;
                      }
                    in
                    Hashtbl.add tenants tenant tn;
                    let entries = advertise tenant tn in
                    Ok
                      (Wire.Registered
                         {
                           tenant;
                           parties = Model.parties model;
                           versions =
                             List.map (fun e -> e.Registry.version) entries;
                           digest = Evolve.model_digest model;
                         })
                  end))
    | Wire.Evolve { tenant; owner; changed; klass } -> (
        match Hashtbl.find_opt tenants tenant with
        | None -> Error (`Unknown_tenant tenant)
        | Some tn -> (
            match Sexp.process_of_string changed with
            | Error e -> Error (`Bad_request ("process: " ^ e))
            | Ok changed -> (
                let op_budget, round_budget = Wire.class_budgets klass in
                let config =
                  Config.with_budgets ~op_budget ~round_budget Config.default
                in
                match Evolution.run ~config tn.model ~owner ~changed with
                | Ok report ->
                    tn.model <- report.Evolution.choreography;
                    tn.consistent <- report.Evolution.consistent;
                    tn.evolutions <- tn.evolutions + 1;
                    ignore (advertise tenant tn);
                    Ok
                      (Wire.evolved_of_report
                         ~digest:(Evolve.model_digest report.choreography)
                         report)
                | Error (`Unknown_party p) -> Error (`Unknown_party p))))
    | Wire.Query { tenant } -> (
        match Hashtbl.find_opt tenants tenant with
        | None -> Error (`Unknown_tenant tenant)
        | Some tn ->
            Ok
              (Wire.Queried
                 {
                   parties = Model.parties tn.model;
                   consistent = tn.consistent;
                   digest = Evolve.model_digest tn.model;
                   evolutions = tn.evolutions;
                 }))
    | Wire.Migrate_status { tenant } -> (
        match Hashtbl.find_opt tenants tenant with
        | None -> Error (`Unknown_tenant tenant)
        | Some tn -> Ok (Wire.Migration (statuses tenant tn)))
    | Wire.Publish { tenant; party; instances; seed } -> (
        match Hashtbl.find_opt tenants tenant with
        | None -> Error (`Unknown_tenant tenant)
        | Some tn -> Parties.publish tn.migrate tn.model ~party ~instances ~seed)
    | Wire.Stats -> Ok (Wire.Stats_snapshot [])
  in
  List.map
    (fun line ->
      let resp =
        match Wire.request_of_string line with
        | Error (id, msg) -> { Wire.id; result = Error (`Bad_request msg) }
        | Ok { Wire.id; op } -> { Wire.id; result = exec op }
      in
      Wire.response_to_string resp)
    (List.filter (fun l -> not (Wire.blank l)) lines)

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

type report = {
  requests : int;
  tenants : int;
  shed : int;
  errors : int;
  elapsed_s : float;
  throughput : float;
  percentiles : (string * (float * float * float)) list;
}

let replay ?(options = Server.default_options) lines =
  let server = Server.create ~options () in
  let t0 = Unix.gettimeofday () in
  let shed = ref 0 and errors = ref 0 and total = ref 0 in
  let rec batches = function
    | [] -> ()
    | lines ->
        let rec split k acc = function
          | rest when k = 0 -> (List.rev acc, rest)
          | [] -> (List.rev acc, [])
          | l :: rest -> split (k - 1) (l :: acc) rest
        in
        let chunk, rest = split options.Server.batch [] lines in
        let reqs =
          List.filter_map
            (fun l ->
              match Wire.request_of_string l with
              | Ok r -> Some r
              | Error _ ->
                  incr errors;
                  None)
            chunk
        in
        total := !total + List.length reqs;
        List.iter
          (fun (resp : Wire.response) ->
            match resp.Wire.result with
            | Error `Overloaded -> incr shed
            | Error _ -> incr errors
            | Ok _ -> ())
          (Server.cycle server reqs);
        batches rest
  in
  batches (List.filter (fun l -> not (Wire.blank l)) lines);
  let elapsed_s = Unix.gettimeofday () -. t0 in
  {
    requests = !total;
    tenants = Tenant.count (Server.store server);
    shed = !shed;
    errors = !errors;
    elapsed_s;
    throughput = (if elapsed_s > 0. then float_of_int !total /. elapsed_s else 0.);
    percentiles =
      List.map
        (fun (kind, samples) ->
          ( kind,
            ( Server.percentile samples 0.5,
              Server.percentile samples 0.95,
              Server.percentile samples 0.99 ) ))
        (Server.latencies_us server);
  }

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>%d requests over %d tenants in %.3fs (%.0f req/s), %d shed, %d \
     errors@,%a@]"
    r.requests r.tenants r.elapsed_s r.throughput r.shed r.errors
    (Fmt.list ~sep:Fmt.cut (fun ppf (kind, (p50, p95, p99)) ->
         Fmt.pf ppf "  %-14s p50 %8.0fus  p95 %8.0fus  p99 %8.0fus" kind p50
           p95 p99))
    r.percentiles

let report_counters r =
  [
    ("serve.requests", r.requests);
    ("serve.tenants", r.tenants);
    ("serve.shed", r.shed);
    ("serve.errors", r.errors);
    ("serve.throughput_rps", int_of_float r.throughput);
  ]
  @ List.concat_map
      (fun (kind, (p50, p95, p99)) ->
        [
          (Printf.sprintf "serve.lat.%s.p50_us" kind, int_of_float p50);
          (Printf.sprintf "serve.lat.%s.p95_us" kind, int_of_float p95);
          (Printf.sprintf "serve.lat.%s.p99_us" kind, int_of_float p99);
        ])
      r.percentiles
