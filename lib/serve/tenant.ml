(* Sharded multi-tenant store — see tenant.mli for the contract. *)

module Model = Chorev_choreography.Model
module Evolution = Chorev_choreography.Evolution
module Consistency = Chorev_choreography.Consistency
module Registry = Chorev_discovery.Registry
module Evolve = Chorev_journal.Evolve
module Dir = Chorev_wal.Dir
module Json = Chorev_wal.Json
module Sexp = Chorev_bpel.Sexp
module Process = Chorev_bpel.Process
module Config = Chorev_config.Config

(* ------------------------------------------------------------------ *)
(* Durable layout                                                      *)
(* ------------------------------------------------------------------ *)

(* <root>/<tenant>/           the tenant run: plan = the registration,
                              one record per publish
   <root>/<tenant>/evolve-NNNNNN/   one evolve run per evolution

   A publish record's [after] is the tenant's evolution count at
   publish time, the cursor that lets recovery interleave publish
   replays with evolve replays in the original order. *)

type plan = { seq : int; name : string; processes : Process.t list }
type publish = { party : string; instances : int; seed : int; after : int }

module Kind = struct
  let kind = "tenant"

  type nonrec plan = plan
  type record = publish

  let plan_to_json p =
    Json.Obj
      [
        ("seq", Json.Int p.seq);
        ("name", Json.Str p.name);
        ( "processes",
          Json.Arr
            (List.map (fun q -> Json.Str (Sexp.process_to_string q)) p.processes) );
      ]

  let plan_of_json j =
    match (Json.member "seq" j, Json.member "name" j, Json.member "processes" j) with
    | Some (Json.Int seq), Some (Json.Str name), Some ps ->
        Json.list
          (function
            | Json.Str s -> Sexp.process_of_string s
            | _ -> Error "tenant plan: malformed process")
          ps
        |> Result.map (fun processes -> { seq; name; processes })
    | _ -> Error "tenant plan: missing field"

  let record_to_json r =
    Json.Obj
      [
        ("rec", Json.Str "publish");
        ("party", Json.Str r.party);
        ("instances", Json.Int r.instances);
        ("seed", Json.Int r.seed);
        ("after", Json.Int r.after);
      ]

  let record_of_json j =
    let int k = match Json.member k j with Some (Json.Int i) -> Some i | _ -> None in
    match (Json.member "party" j, int "instances", int "seed", int "after") with
    | Some (Json.Str party), Some instances, Some seed, Some after ->
        Ok { party; instances; seed; after }
    | _ -> Error "publish: missing field"

  let is_seal _ = false
end

module Run = Chorev_wal.Run.Make (Kind)

type durable = { dir : string; log : Run.t }

type tenant = {
  name : string;
  mutable model : Model.t;
  cache : Evolution.Cache.t;
  mutable evolutions : int;
  mutable consistent : bool;
  mutable digest : string;
      (** [Evolve.model_digest model], recomputed only when the model
          changes (register, evolve, recovery) *)
  durable : durable option;  (** the tenant run (durable stores) *)
  migrate : Parties.t;  (** per-party instance populations *)
}

type shard = { mu : Mutex.t; tenants : (string, tenant) Hashtbl.t }

type t = {
  shards : shard array;
  registry : Registry.t;
  reg_mu : Mutex.t;
  root : string option;
  seq_mu : Mutex.t;
  mutable seq : int;  (** global registration sequence, persisted so
                          recovery replays registrations in stream
                          order (registry ids are minted in order) *)
}

let registry t = t.registry

let make ?(shards = 8) root =
  let shards = max 1 shards in
  {
    shards =
      Array.init shards (fun _ ->
          { mu = Mutex.create (); tenants = Hashtbl.create 64 });
    registry = Registry.create ();
    reg_mu = Mutex.create ();
    root;
    seq_mu = Mutex.create ();
    seq = 0;
  }

let create ?shards ?journal_root () =
  (match journal_root with
  | None -> ()
  | Some root -> (
      match Dir.validate_root root with
      | Ok () -> ()
      | Error e -> invalid_arg ("Tenant.create: " ^ e)));
  make ?shards journal_root

let shard t name = t.shards.(Hashtbl.hash name mod Array.length t.shards)
let with_shard t name f = Mutex.protect (shard t name).mu f

let count t =
  Array.fold_left (fun n s -> n + Hashtbl.length s.tenants) 0 t.shards

let exists t name =
  with_shard t name (fun () -> Hashtbl.mem (shard t name).tenants name)

let find t name = Hashtbl.find_opt (shard t name).tenants name

(* ------------------------------------------------------------------ *)
(* Registry integration                                                *)
(* ------------------------------------------------------------------ *)

let service_name tenant party = tenant ^ "/" ^ party

(* (Re-)advertise every party's current public. Idempotent for
   unchanged publics, a version bump for changed ones — per-name
   sequences depend only on this tenant's history, so cross-tenant
   interleaving cannot skew versions. *)
let advertise_publics t tn =
  Mutex.protect t.reg_mu (fun () ->
      List.map
        (fun party ->
          let e =
            Registry.register t.registry
              ~name:(service_name tn.name party)
              ~party
              (Model.public tn.model party)
          in
          (party, e))
        (Model.parties tn.model))

let party_statuses t tn =
  Mutex.protect t.reg_mu (fun () ->
      List.filter_map
        (fun party ->
          match Registry.find_by_name t.registry (service_name tn.name party) with
          | Some e ->
              Some
                {
                  Wire.party;
                  service = e.Registry.id;
                  version = e.Registry.version;
                  running = Parties.running tn.migrate party;
                  schemas = Parties.schemas tn.migrate party;
                }
          | None -> None)
        (Model.parties tn.model))

let evolve_dir dir k = Filename.concat dir (Printf.sprintf "evolve-%06d" k)

(* ------------------------------------------------------------------ *)
(* Register                                                            *)
(* ------------------------------------------------------------------ *)

let registered_body tn versions =
  Wire.Registered
    {
      tenant = tn.name;
      parties = Model.parties tn.model;
      versions;
      digest = tn.digest;
    }

let validate_model processes =
  match Model.of_processes processes with
  | exception Invalid_argument e -> Error (`Invalid_model e)
  | exception Failure e -> Error (`Invalid_model e)
  | model -> (
      match Model.validate model with
      | Ok () -> Ok model
      | Error issues ->
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
          else Ok model)

let next_seq t =
  Mutex.protect t.seq_mu (fun () ->
      let s = t.seq in
      t.seq <- s + 1;
      s)

let admit t name model ~durable =
  let tn =
    {
      name;
      model;
      cache = Evolution.Cache.create ();
      evolutions = 0;
      consistent = Consistency.consistent model;
      digest = Evolve.model_digest model;
      durable;
      migrate = Parties.create model;
    }
  in
  Hashtbl.replace (shard t name).tenants name tn;
  tn

let register t name ~processes =
  with_shard t name (fun () ->
      if Hashtbl.mem (shard t name).tenants name then
        Error (`Duplicate_tenant name)
      else
        match validate_model processes with
        | Error _ as e -> e
        | Ok model -> (
            let durable () =
              match t.root with
              | None -> Ok None
              | Some root -> (
                  let dir = Filename.concat root (Dir.sanitize name) in
                  match Run.create ~dir { seq = next_seq t; name; processes } with
                  | Ok log -> Ok (Some { dir; log })
                  | Error e -> Error (`Failed e))
            in
            match durable () with
            | Error _ as e -> e
            | Ok durable ->
                let tn = admit t name model ~durable in
                let entries = advertise_publics t tn in
                Ok
                  (registered_body tn
                     (List.map (fun (_, e) -> e.Registry.version) entries))))

(* ------------------------------------------------------------------ *)
(* Evolve / query / migrate-status                                     *)
(* ------------------------------------------------------------------ *)

let with_tenant t name f =
  with_shard t name (fun () ->
      match find t name with
      | None -> Error (`Unknown_tenant name)
      | Some tn -> f tn)

let advance t tn (report : Evolution.report) =
  tn.model <- report.choreography;
  tn.consistent <- report.consistent;
  tn.digest <- Evolve.model_digest report.choreography;
  tn.evolutions <- tn.evolutions + 1;
  ignore (advertise_publics t tn)

let evolve t ~config ?crash_after name ~owner ~changed =
  with_tenant t name (fun tn ->
      let result =
        match tn.durable with
        | Some d ->
            Evolve.run ~config ~cache:tn.cache ?crash_after
              ~dir:(evolve_dir d.dir tn.evolutions) tn.model ~owner ~changed
            |> Result.map (fun (o : Evolve.outcome) -> o.report)
            |> Result.map_error (fun e -> `Failed e)
        | None ->
            Evolution.run ~config ~cache:tn.cache tn.model ~owner ~changed
            |> Result.map_error (fun (`Unknown_party p) -> `Unknown_party p)
      in
      Result.map
        (fun report ->
          advance t tn report;
          Wire.evolved_of_report ~digest:tn.digest report)
        result)

let query t name =
  with_tenant t name (fun tn ->
      Ok
        (Wire.Queried
           {
             parties = Model.parties tn.model;
             consistent = tn.consistent;
             digest = tn.digest;
             evolutions = tn.evolutions;
           }))

let migrate_status t name =
  with_tenant t name (fun tn -> Ok (Wire.Migration (party_statuses t tn)))

(* ------------------------------------------------------------------ *)
(* Publish                                                             *)
(* ------------------------------------------------------------------ *)

let publish t name ~party ~instances ~seed =
  with_tenant t name (fun tn ->
      if not (Parties.known tn.migrate party) then Error (`Unknown_party party)
      else begin
        (* durable intent first: a crash after the commit replays the
           publish on recovery; a crash before it never happened *)
        Option.iter
          (fun d -> Run.commit d.log { party; instances; seed; after = tn.evolutions })
          tn.durable;
        Parties.publish tn.migrate tn.model ~party ~instances ~seed
      end)

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let rec iter_result f = function
  | [] -> Ok ()
  | x :: rest ->
      let* () = f x in
      iter_result f rest

let has_plan dir = Sys.file_exists (Filename.concat dir "plan.json")

(* Rebuild one tenant: its registration, then every evolve run in order
   (an interrupted one is finished live by [resume]) interleaved with
   the publish records by their [after] cursor, so instance populations
   are rebuilt against the same model each publish originally saw. A
   directory without a plan never committed and is skipped. *)
let recover_tenant t ~config (dir, (l : Run.loaded)) =
  let { seq; name; processes } = l.plan in
  t.seq <- max t.seq (seq + 1);
  match Model.of_processes processes with
  | exception (Invalid_argument e | Failure e) ->
      Error (Printf.sprintf "%s: %s" (Filename.concat dir "plan.json") e)
  | model ->
      let durable = { dir; log = Run.reopen ~dir l } in
      let tn = with_shard t name (fun () -> admit t name model ~durable:(Some durable)) in
      ignore (advertise_publics t tn);
      let pubs = ref l.records in
      let rec apply_pubs () =
        match !pubs with
        | p :: rest when p.after <= tn.evolutions ->
            pubs := rest;
            ignore
              (Parties.publish tn.migrate tn.model ~party:p.party
                 ~instances:p.instances ~seed:p.seed);
            apply_pubs ()
        | _ -> ()
      in
      let* () =
        Dir.list_subdirs dir
        |> List.filter (String.starts_with ~prefix:"evolve-")
        |> List.map (Filename.concat dir)
        |> List.filter has_plan
        |> iter_result (fun edir ->
               apply_pubs ();
               let* o = Evolve.resume ~config ~cache:tn.cache ~dir:edir () in
               Ok (advance t tn o.report))
      in
      Ok (apply_pubs ())

let recover ?shards ?(config = Config.default) ~journal_root () =
  let t = create ?shards ~journal_root () in
  let* runs =
    Dir.list_subdirs journal_root
    |> List.map (Filename.concat journal_root)
    |> List.filter has_plan
    |> List.fold_left
         (fun acc dir ->
           let* acc = acc in
           let* l = Run.load ~dir in
           Ok ((dir, l) :: acc))
         (Ok [])
  in
  (* stream order, not directory order: registry ids are minted in
     registration order and must come back identical *)
  let runs =
    List.sort (fun (_, (a : Run.loaded)) (_, b) -> compare a.plan.seq b.plan.seq) runs
  in
  let* () = iter_result (recover_tenant t ~config) runs in
  Ok (t, List.length runs)

(* ------------------------------------------------------------------ *)
(* Stats support                                                       *)
(* ------------------------------------------------------------------ *)

let cache_totals t =
  let totals = Hashtbl.create 8 in
  Array.iter
    (fun s ->
      Mutex.protect s.mu (fun () ->
          Hashtbl.iter
            (fun _ tn ->
              List.iter
                (fun (table, (st : Chorev_cache.Lru.stats)) ->
                  let h, m =
                    Option.value ~default:(0, 0) (Hashtbl.find_opt totals table)
                  in
                  Hashtbl.replace totals table (h + st.hits, m + st.misses))
                (Evolution.Cache.stats tn.cache))
            s.tenants))
    t.shards;
  Hashtbl.fold
    (fun table (h, m) acc ->
      (table ^ ".hits", h) :: (table ^ ".misses", m) :: acc)
    totals []
  |> List.sort compare
