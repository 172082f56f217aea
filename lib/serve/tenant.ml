(* Sharded multi-tenant store — see tenant.mli for the contract. *)

module Model = Chorev_choreography.Model
module Evolution = Chorev_choreography.Evolution
module Consistency = Chorev_choreography.Consistency
module Registry = Chorev_discovery.Registry
module Journal = Chorev_journal.Journal
module Evolve = Chorev_journal.Evolve
module Dir = Chorev_wal.Dir
module Json = Chorev_wal.Json
module Wal = Chorev_wal.Wal
module Sexp = Chorev_bpel.Sexp
module Process = Chorev_bpel.Process
module Config = Chorev_config.Config

type tenant = {
  name : string;
  mutable model : Model.t;
  cache : Evolution.Cache.t;
  mutable evolutions : int;
  mutable consistent : bool;
  dir : string option;  (** journal directory (durable stores) *)
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

(* ------------------------------------------------------------------ *)
(* Durable layout                                                      *)
(* ------------------------------------------------------------------ *)

(* <root>/<tenant>/meta        "seq\nname"
   <root>/<tenant>/parties/party-NNN.sexp
   <root>/<tenant>/evolve-NNNNNN/   one Journal.Evolve dir per evolution *)

let meta_file dir = Filename.concat dir "meta"
let parties_dir dir = Filename.concat dir "parties"
let evolve_dir dir k = Filename.concat dir (Printf.sprintf "evolve-%06d" k)

let populate_tenant_dir ~seq ~name processes tmp =
  Dir.write_atomic (meta_file tmp) (Printf.sprintf "%d\n%s\n" seq name);
  Dir.mkdir_p (parties_dir tmp);
  List.iteri
    (fun i p ->
      Dir.write_atomic
        (Filename.concat (parties_dir tmp) (Printf.sprintf "party-%03d.sexp" i))
        (Sexp.process_to_string p))
    processes

let read_meta dir =
  match String.split_on_char '\n' (Dir.read_file (meta_file dir)) with
  | seq :: name :: _ -> (int_of_string seq, name)
  | _ -> failwith (meta_file dir ^ ": malformed")

let read_parties dir =
  let pdir = parties_dir dir in
  Sys.readdir pdir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".sexp")
  |> List.sort String.compare
  |> List.map (fun f ->
         match Sexp.process_of_string (Dir.read_file (Filename.concat pdir f)) with
         | Ok p -> p
         | Error e -> failwith (Filename.concat pdir f ^ ": " ^ e))

(* ------------------------------------------------------------------ *)
(* Register                                                            *)
(* ------------------------------------------------------------------ *)

let registered_body tn versions =
  Wire.Registered
    {
      tenant = tn.name;
      parties = Model.parties tn.model;
      versions;
      digest = Journal.model_digest tn.model;
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

let admit t name model ~dir =
  let tn =
    {
      name;
      model;
      cache = Evolution.Cache.create ();
      evolutions = 0;
      consistent = Consistency.consistent ~cache:true model;
      dir;
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
            let publish () =
              match t.root with
              | None -> Ok None
              | Some root -> (
                  let seq = next_seq t in
                  match
                    Dir.create_fresh
                      ~populate:(populate_tenant_dir ~seq ~name processes)
                      ~root name
                  with
                  | Ok dir -> Ok (Some dir)
                  | Error e -> Error (`Failed e))
            in
            match publish () with
            | Error _ as e -> e
            | Ok dir ->
                let tn = admit t name model ~dir in
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

let evolve t ~config ?crash_after name ~owner ~changed =
  with_tenant t name (fun tn ->
      match tn.dir with
      | Some tdir -> (
          let dir = evolve_dir tdir tn.evolutions in
          match Evolve.run ~config ?crash_after ~dir tn.model ~owner ~changed with
          | Ok o ->
              tn.model <- o.Evolve.choreography;
              tn.consistent <- o.Evolve.consistent;
              tn.evolutions <- tn.evolutions + 1;
              ignore (advertise_publics t tn);
              Ok
                (Wire.Evolved
                   {
                     consistent = o.Evolve.consistent;
                     rounds = List.length o.Evolve.round_logs;
                     digest = o.Evolve.digest;
                     degraded = false;
                   })
          | Error e -> Error (`Failed e))
      | None -> (
          match Evolution.run ~config ~cache:tn.cache tn.model ~owner ~changed with
          | Ok report ->
              tn.model <- report.Evolution.choreography;
              tn.consistent <- report.Evolution.consistent;
              tn.evolutions <- tn.evolutions + 1;
              ignore (advertise_publics t tn);
              Ok (Wire.evolved_of_report report)
          | Error (`Unknown_party p) -> Error (`Unknown_party p)))

let query t name =
  with_tenant t name (fun tn ->
      Ok
        (Wire.Queried
           {
             parties = Model.parties tn.model;
             consistent = tn.consistent;
             digest = Journal.model_digest tn.model;
             evolutions = tn.evolutions;
           }))

let migrate_status t name =
  with_tenant t name (fun tn -> Ok (Wire.Migration (party_statuses t tn)))

(* ------------------------------------------------------------------ *)
(* Publish                                                             *)
(* ------------------------------------------------------------------ *)

(* <tenant dir>/publishes.jsonl — one Wal record per publish; [after]
   is the tenant's evolution count at publish time, the cursor that
   lets recovery interleave publish replays with evolve replays in the
   original order. *)

let publishes_file dir = Filename.concat dir "publishes.jsonl"

let publish_record ~party ~instances ~seed ~after =
  Json.Obj
    [
      ("rec", Json.Str "publish");
      ("party", Json.Str party);
      ("instances", Json.Int instances);
      ("seed", Json.Int seed);
      ("after", Json.Int after);
    ]

let publish_of_json j =
  let int k =
    match Json.member k j with
    | Some (Json.Int i) -> Some i
    | _ -> None
  in
  match
    (Json.member "party" j, int "instances", int "seed", int "after")
  with
  | Some (Json.Str party), Some instances, Some seed, Some after ->
      Ok (after, party, instances, seed)
  | _ -> Error "publish: missing field"

let read_publishes dir =
  let path = publishes_file dir in
  if not (Sys.file_exists path) then []
  else
    match Wal.read ~path ~decode:publish_of_json with
    | Ok { Wal.records; _ } -> records
    | Error e -> failwith (path ^ ": " ^ e)

let publish t name ~party ~instances ~seed =
  with_tenant t name (fun tn ->
      if not (Parties.known tn.migrate party) then Error (`Unknown_party party)
      else begin
        (* durable intent first: a crash after the append replays the
           publish on recovery; a crash before it never happened *)
        (match tn.dir with
        | Some tdir ->
            let w = Wal.open_append ~path:(publishes_file tdir) in
            Fun.protect
              ~finally:(fun () -> Wal.close w)
              (fun () ->
                Wal.append w
                  (publish_record ~party ~instances ~seed
                     ~after:tn.evolutions))
        | None -> ());
        Parties.publish tn.migrate tn.model ~party ~instances ~seed
      end)

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

let recover ?shards ?(config = Config.default) ~journal_root () =
  let t = create ?shards ~journal_root () in
  let dirs =
    Dir.list_subdirs journal_root
    |> List.filter_map (fun d ->
           let dir = Filename.concat journal_root d in
           if Sys.file_exists (meta_file dir) then
             let seq, name = read_meta dir in
             Some (seq, name, dir)
           else None)
    (* stream order, not directory order: registry ids are minted in
       registration order and must come back identical *)
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  List.iter
    (fun (seq, name, dir) ->
      t.seq <- max t.seq (seq + 1);
      let model = Model.of_processes (read_parties dir) in
      let tn = with_shard t name (fun () -> admit t name model ~dir:(Some dir)) in
      ignore (advertise_publics t tn);
      (* Replay every journaled evolution in order — an interrupted one
         is finished live by [resume] — interleaved with the publish
         log by its [after] cursor, so instance populations are rebuilt
         against the same model each publish originally saw. *)
      let pubs = ref (read_publishes dir) in
      let apply_pubs () =
        let rec go () =
          match !pubs with
          | (after, party, instances, seed) :: rest
            when after <= tn.evolutions ->
              pubs := rest;
              ignore
                (Parties.publish tn.migrate tn.model ~party ~instances ~seed);
              go ()
          | _ -> ()
        in
        go ()
      in
      Dir.list_subdirs dir
      |> List.filter (fun d -> String.length d > 7 && String.sub d 0 7 = "evolve-")
      |> List.sort String.compare
      |> List.iter (fun ed ->
             let edir = Filename.concat dir ed in
             if Dir.has_journal edir then begin
               apply_pubs ();
               match Evolve.resume ~config ~dir:edir () with
               | Ok o ->
                   tn.model <- o.Evolve.choreography;
                   tn.consistent <- o.Evolve.consistent;
                   tn.evolutions <- tn.evolutions + 1;
                   ignore (advertise_publics t tn)
               | Error e -> failwith (edir ^ ": " ^ e)
             end);
      apply_pubs ())
    dirs;
  (t, List.length dirs)

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
