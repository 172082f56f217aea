(* The instance store that Chorev_migration.Versions replaced, kept
   verbatim as the oracle of the store differential test in
   test_migration: per-version hash tables keyed by id, one id → version
   index, and a monotone admission stamp from which every enumeration
   order is sorted. No production code calls it. *)

open Chorev_migration

(** Version coexistence for evolving public processes.

    "The co-existence of different versions of a process choreography
    is a must in this context" (Sec. 8). A {!t} holds the version
    history of one party's public process and the running instances
    pinned to each version. Publishing a new version migrates every
    compliant instance (the ADEPT strategy) and leaves the others to
    finish on their version; fully drained old versions can be
    retired.

    Instances live in per-version hash tables keyed by id, with one
    global id → version index, so [start]/[observe]/[move_instance]
    are O(1) and a 1M-instance population never pays the linear scans
    of the original list representation. Every admission stamps a
    monotone sequence number; enumeration orders ([version_instances],
    [all_instances], [in_admission_order]) are defined from those
    stamps, never from hash-table iteration, so they are deterministic
    and survive re-building the same population in the same order. *)

module Afsa = Chorev_afsa.Afsa

type version = {
  number : int;
  public : Afsa.t;
  tbl : (string, int * Instance.t) Hashtbl.t;
      (** id → (admission seq, instance) *)
}

type t = {
  mutable versions : version list;  (** newest first *)
  mutable retired : int list;
  mutable next_seq : int;
  index : (string, int) Hashtbl.t;  (** instance id → hosting version *)
}

type migration_report = {
  to_version : int;
  migrated : string list;  (** instance ids *)
  finishing_on_old : (string * int) list;  (** id, version *)
  stuck : string list;
}

let mk_version number public = { number; public; tbl = Hashtbl.create 64 }

let create public =
  {
    versions = [ mk_version 1 public ];
    retired = [];
    next_seq = 0;
    index = Hashtbl.create 256;
  }

let version_number v = v.number
let version_public v = v.public
let version_count v = Hashtbl.length v.tbl

(* Most recently admitted first — the order the old list representation
   (which prepended on [start]) exposed. *)
let version_instances v =
  Hashtbl.fold (fun _ entry acc -> entry :: acc) v.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare (b : int) a)
  |> List.map snd

let current t = List.hd t.versions
let version_numbers t = List.map (fun v -> v.number) t.versions
let find_version t n = List.find_opt (fun v -> v.number = n) t.versions

let remove t ~id =
  match Hashtbl.find_opt t.index id with
  | None -> false
  | Some n ->
      (match find_version t n with
      | Some v -> Hashtbl.remove v.tbl id
      | None -> ());
      Hashtbl.remove t.index id;
      true

(** Start a new instance on a specific live version. Ids are unique
    across the whole store: re-starting an existing id moves it. *)
let start_on t n inst =
  match find_version t n with
  | None ->
      invalid_arg (Printf.sprintf "Versions.start_on: no live version %d" n)
  | Some v ->
      ignore (remove t ~id:inst.Instance.id);
      let seq = t.next_seq in
      t.next_seq <- seq + 1;
      Hashtbl.replace v.tbl inst.Instance.id (seq, inst);
      Hashtbl.replace t.index inst.Instance.id n

(** Start a new instance on the current version. *)
let start t inst = start_on t (current t).number inst

(** Record a message on a running instance (wherever it lives). *)
let observe t ~id label =
  match Hashtbl.find_opt t.index id with
  | None -> ()
  | Some n -> (
      match find_version t n with
      | None -> ()
      | Some v -> (
          match Hashtbl.find_opt v.tbl id with
          | None -> ()
          | Some (seq, i) ->
              Hashtbl.replace v.tbl id (seq, Instance.extend i label)))

let find_instance t id =
  match Hashtbl.find_opt t.index id with
  | None -> None
  | Some n ->
      Option.bind (find_version t n) (fun v ->
          Option.map (fun (_, i) -> (n, i)) (Hashtbl.find_opt v.tbl id))

let instance_count t =
  List.fold_left (fun acc v -> acc + Hashtbl.length v.tbl) 0 t.versions

let counts t = List.map (fun v -> (v.number, Hashtbl.length v.tbl)) t.versions

let all_instances t =
  List.concat_map
    (fun v -> List.map (fun i -> (v.number, i)) (version_instances v))
    t.versions

let in_admission_order t =
  List.concat_map
    (fun v ->
      Hashtbl.fold (fun _ (seq, i) acc -> (v.number, seq, i) :: acc) v.tbl [])
    t.versions
  |> List.sort (fun (_, a, _) (_, b, _) -> compare (a : int) b)
  |> List.map (fun (n, _, i) -> (n, i))

(** Open a fresh (empty) current version without classifying anything —
    the batched migrator publishes first and then moves instances batch
    by batch. *)
let add_version t public =
  let number = (current t).number + 1 in
  t.versions <- mk_version number public :: t.versions;
  number

(** Re-pin an instance to another live version, keeping its admission
    stamp (enumeration order is stable under migration). *)
let move_instance t ~id ~to_version =
  match Hashtbl.find_opt t.index id with
  | None -> invalid_arg ("Versions.move_instance: unknown instance " ^ id)
  | Some n ->
      if n <> to_version then (
        match (find_version t n, find_version t to_version) with
        | Some src, Some dst ->
            let entry = Hashtbl.find src.tbl id in
            Hashtbl.remove src.tbl id;
            Hashtbl.replace dst.tbl id entry;
            Hashtbl.replace t.index id to_version
        | _ ->
            invalid_arg
              (Printf.sprintf "Versions.move_instance: no live version %d"
                 to_version))

(** Publish a new public process: compliant instances of *all* live
    versions migrate to it; the rest stay where they are (or are
    reported stuck). Instances are classified in admission order, so
    the report lists are deterministic. *)
let publish t new_public =
  let items = in_admission_order t in
  let number = add_version t new_public in
  let migrated = ref [] in
  let finishing = ref [] in
  let stuck = ref [] in
  List.iter
    (fun (vnum, (inst : Instance.t)) ->
      let v = Option.get (find_version t vnum) in
      match Compliance.dispose ~old_public:v.public ~new_public inst with
      | Compliance.Migrate ->
          move_instance t ~id:inst.Instance.id ~to_version:number;
          migrated := inst.Instance.id :: !migrated
      | Compliance.Finish_on_old ->
          finishing := (inst.Instance.id, vnum) :: !finishing
      | Compliance.Stuck -> stuck := inst.Instance.id :: !stuck)
    items;
  {
    to_version = number;
    migrated = List.rev !migrated;
    finishing_on_old = List.rev !finishing;
    stuck = List.rev !stuck;
  }

(** Retire versions with no remaining instances (never the current). *)
let retire_drained t =
  let cur = (current t).number in
  let keep, drop =
    List.partition
      (fun v -> v.number = cur || Hashtbl.length v.tbl > 0)
      t.versions
  in
  t.versions <- keep;
  t.retired <- List.map (fun v -> v.number) drop @ t.retired;
  List.map (fun v -> v.number) drop

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>migration to v%d: %d migrated (%a)@,%d finishing on old versions@,%d stuck@]"
    r.to_version
    (List.length r.migrated)
    (Fmt.list ~sep:(Fmt.any ", ") Fmt.string)
    r.migrated
    (List.length r.finishing_on_old)
    (List.length r.stuck)
