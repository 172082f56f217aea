(** Version coexistence for evolving public processes.

    "The co-existence of different versions of a process choreography
    is a must in this context" (Sec. 8). A {!t} holds the version
    history of one party's public process and the running instances
    pinned to each version. Publishing a new version migrates every
    compliant instance (the ADEPT strategy) and leaves the others to
    finish on their version; fully drained old versions can be
    retired.

    Every instance lives in one admission log shared by all versions:
    a growable array of entries [{ host; inst }], oldest admission
    first, where [host] is the hosting version's number and [0] marks a
    removed entry. An id → entry index makes [start]/[observe]/
    [move_instance] one hash lookup, and each version keeps its
    instance count. Every enumeration order ([version_instances],
    [all_instances], [in_admission_order]) is a scan of the log, never
    hash-table iteration, so it is deterministic and survives
    re-building the same population in the same order. Moving an
    instance rewrites its entry's [host] in place; re-starting an id
    appends a fresh entry. The log compacts itself, keeping order, once
    removed entries outnumber live ones. *)

module Afsa = Chorev_afsa.Afsa

type entry = { mutable host : int; mutable inst : Instance.t }

type log = {
  mutable entries : entry array;  (** oldest admission first *)
  mutable len : int;  (** entries in use, removed ones included *)
  mutable live : int;  (** entries with [host <> 0] *)
}

type version = {
  number : int;
  public : Afsa.t;
  mutable count : int;  (** live entries hosted here *)
  log : log;  (** the store's log, shared by every version *)
}

type t = {
  mutable versions : version list;  (** newest first *)
  log : log;
  index : (string, entry) Hashtbl.t;  (** instance id → its live entry *)
}

type migration_report = {
  to_version : int;
  migrated : string list;  (** instance ids *)
  finishing_on_old : (string * int) list;  (** id, version *)
  stuck : string list;
}

(* Fills unused slots; never indexed, never mutated. *)
let vacant = { host = 0; inst = Instance.make ~id:"" () }

let mk_version log number public = { number; public; count = 0; log }

let create public =
  let log = { entries = Array.make 64 vacant; len = 0; live = 0 } in
  {
    versions = [ mk_version log 1 public ];
    log;
    index = Hashtbl.create 256;
  }

let version_number v = v.number
let version_public v = v.public
let version_count v = v.count

(* Most recently admitted first — the order the original list
   representation (which prepended on [start]) exposed. *)
let version_instances (v : version) =
  let acc = ref [] in
  for i = 0 to v.log.len - 1 do
    let e = v.log.entries.(i) in
    if e.host = v.number then acc := e.inst :: !acc
  done;
  !acc

let current t = List.hd t.versions
let version_numbers t = List.map (fun v -> v.number) t.versions
let find_version t n = List.find_opt (fun v -> v.number = n) t.versions

let append log e =
  if log.len = Array.length log.entries then begin
    let bigger = Array.make (2 * log.len) vacant in
    Array.blit log.entries 0 bigger 0 log.len;
    log.entries <- bigger
  end;
  log.entries.(log.len) <- e;
  log.len <- log.len + 1;
  log.live <- log.live + 1

(* Drop removed entries, keeping the order of the live ones. *)
let compact log =
  let j = ref 0 in
  for i = 0 to log.len - 1 do
    let e = log.entries.(i) in
    if e.host <> 0 then begin
      log.entries.(!j) <- e;
      incr j
    end
  done;
  Array.fill log.entries !j (log.len - !j) vacant;
  log.len <- !j

let remove t ~id =
  match Hashtbl.find_opt t.index id with
  | None -> false
  | Some e ->
      (match find_version t e.host with
      | Some v -> v.count <- v.count - 1
      | None -> ());
      e.host <- 0;
      Hashtbl.remove t.index id;
      t.log.live <- t.log.live - 1;
      if t.log.len - t.log.live > t.log.live then compact t.log;
      true

(** Start a new instance on a specific live version. Ids are unique
    across the whole store: re-starting an existing id moves it. *)
let start_on t n inst =
  match find_version t n with
  | None ->
      invalid_arg (Printf.sprintf "Versions.start_on: no live version %d" n)
  | Some v ->
      ignore (remove t ~id:inst.Instance.id);
      let e = { host = n; inst } in
      append t.log e;
      v.count <- v.count + 1;
      Hashtbl.replace t.index inst.Instance.id e

(** Start a new instance on the current version. *)
let start t inst = start_on t (current t).number inst

(** Record a message on a running instance (wherever it lives). *)
let observe t ~id label =
  match Hashtbl.find_opt t.index id with
  | None -> ()
  | Some e -> e.inst <- Instance.extend e.inst label

let find_instance t id =
  Option.map (fun e -> (e.host, e.inst)) (Hashtbl.find_opt t.index id)

let instance_count t = t.log.live
let counts t = List.map (fun v -> (v.number, v.count)) t.versions

let all_instances t =
  List.concat_map
    (fun v -> List.map (fun i -> (v.number, i)) (version_instances v))
    t.versions

let in_admission_order t =
  let acc = ref [] in
  for i = t.log.len - 1 downto 0 do
    let e = t.log.entries.(i) in
    if e.host <> 0 then acc := (e.host, e.inst) :: !acc
  done;
  !acc

(** Open a fresh (empty) current version without classifying anything —
    the batched migrator publishes first and then moves instances batch
    by batch. *)
let add_version t public =
  let number = (current t).number + 1 in
  t.versions <- mk_version t.log number public :: t.versions;
  number

(** Re-pin an instance to another live version, keeping its place in
    the log (enumeration order is stable under migration). *)
let move_instance t ~id ~to_version =
  match Hashtbl.find_opt t.index id with
  | None -> invalid_arg ("Versions.move_instance: unknown instance " ^ id)
  | Some e ->
      if e.host <> to_version then (
        match (find_version t e.host, find_version t to_version) with
        | Some src, Some dst ->
            src.count <- src.count - 1;
            dst.count <- dst.count + 1;
            e.host <- to_version
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
    List.partition (fun v -> v.number = cur || v.count > 0) t.versions
  in
  t.versions <- keep;
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
