(** Checksummed append-only journal + atomic snapshots for evolution
    runs. See journal.mli for the on-disk layout and durability
    contract. *)

module Model = Chorev_choreography.Model
module Sexp = Chorev_bpel.Sexp
module Process = Chorev_bpel.Process

(* The generic layers — minimal JSON, the checksummed-line WAL and the
   filesystem helpers — live in [Chorev_wal] (they carry no
   choreography dependency, so lower layers like the repair rollback
   journal can share them); this module builds the evolution-journal
   record layer on top. *)
open Chorev_wal

(* ------------------------------------------------------------------ *)
(* Records                                                             *)
(* ------------------------------------------------------------------ *)

type record =
  | Start of { owner : string; parties : string list; digest : string }
  | Round of {
      index : int;
      originator : string;
      changed : string;
      adapted : (string * string) list;
      summary : string;
    }
  | Done of { consistent : bool; digest : string }

let record_to_json = function
  | Start { owner; parties; digest } ->
      Json.Obj
        [
          ("rec", Json.Str "start");
          ("owner", Json.Str owner);
          ("parties", Json.Arr (List.map (fun p -> Json.Str p) parties));
          ("digest", Json.Str digest);
        ]
  | Round { index; originator; changed; adapted; summary } ->
      Json.Obj
        [
          ("rec", Json.Str "round");
          ("index", Json.Int index);
          ("originator", Json.Str originator);
          ("changed", Json.Str changed);
          ( "adapted",
            Json.Arr
              (List.map
                 (fun (p, s) -> Json.Arr [ Json.Str p; Json.Str s ])
                 adapted) );
          ("summary", Json.Str summary);
        ]
  | Done { consistent; digest } ->
      Json.Obj
        [
          ("rec", Json.Str "done");
          ("consistent", Json.Bool consistent);
          ("digest", Json.Str digest);
        ]

let record_of_json j =
  let str = function Some (Json.Str s) -> Some s | _ -> None in
  let field k = Json.member k j in
  match str (field "rec") with
  | Some "start" -> (
      match (str (field "owner"), field "parties", str (field "digest")) with
      | Some owner, Some (Json.Arr ps), Some digest -> (
          let parties =
            List.filter_map (function Json.Str p -> Some p | _ -> None) ps
          in
          match List.length parties = List.length ps with
          | true -> Ok (Start { owner; parties; digest })
          | false -> Error "start: non-string party")
      | _ -> Error "start: missing field")
  | Some "round" -> (
      match
        ( field "index",
          str (field "originator"),
          str (field "changed"),
          field "adapted",
          str (field "summary") )
      with
      | Some (Json.Int index), Some originator, Some changed,
        Some (Json.Arr pairs), Some summary -> (
          let adapted =
            List.filter_map
              (function
                | Json.Arr [ Json.Str p; Json.Str s ] -> Some (p, s)
                | _ -> None)
              pairs
          in
          match List.length adapted = List.length pairs with
          | true -> Ok (Round { index; originator; changed; adapted; summary })
          | false -> Error "round: malformed adapted entry")
      | _ -> Error "round: missing field")
  | Some "done" -> (
      match (field "consistent", str (field "digest")) with
      | Some (Json.Bool consistent), Some digest ->
          Ok (Done { consistent; digest })
      | _ -> Error "done: missing field")
  | _ -> Error "unknown record type"

(* ------------------------------------------------------------------ *)
(* Filesystem helpers                                                  *)
(* ------------------------------------------------------------------ *)

let journal_file dir = Filename.concat dir "journal.jsonl"
let snapshot_dir dir = Filename.concat dir "snapshot"
let changed_file dir = Filename.concat dir "changed.sexp"

(* All filesystem invariants (atomic writes, mkdir -p, dir fsync) live
   in [Dir], shared with the CLI and the serving layer. *)
let mkdir_p = Dir.mkdir_p
let write_atomic = Dir.write_atomic
let read_file = Dir.read_file

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

type writer = Wal.writer

let create ~dir =
  mkdir_p dir;
  mkdir_p (snapshot_dir dir);
  Wal.open_append ~path:(journal_file dir)

let reopen ~dir ~valid_bytes =
  Wal.reopen ~path:(journal_file dir) ~valid_bytes

let append w r = Wal.append w (record_to_json r)
let close = Wal.close

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

type read_result = { records : record list; torn : bool; valid_bytes : int }

let read ~dir =
  match Wal.read ~path:(journal_file dir) ~decode:record_of_json with
  | Error e -> Error e
  | Ok { Chorev_wal.Wal.records; torn; valid_bytes } ->
      Ok { records; torn; valid_bytes }

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

(* Party names become file names; see [Dir.sanitize]. *)
let sanitize = Dir.sanitize

let write_snapshot ~dir (t : Model.t) ~changed =
  mkdir_p dir;
  mkdir_p (snapshot_dir dir);
  List.iter
    (fun p ->
      write_atomic
        (Filename.concat (snapshot_dir dir) (sanitize p ^ ".sexp"))
        (Sexp.process_to_string (Model.private_ t p)))
    (Model.parties t);
  write_atomic (changed_file dir) (Sexp.process_to_string changed)

let read_snapshot_exn ~dir =
  let sdir = snapshot_dir dir in
  if not (Sys.file_exists sdir) then
    Error (Printf.sprintf "no snapshot directory at %s" sdir)
  else
    let files =
      Sys.readdir sdir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".sexp")
      |> List.sort String.compare
    in
    let rec load acc = function
      | [] -> Ok (List.rev acc)
      | f :: rest -> (
          match Sexp.process_of_string (read_file (Filename.concat sdir f)) with
          | Ok p -> load (p :: acc) rest
          | Error e -> Error (Printf.sprintf "snapshot %s: %s" f e))
    in
    match load [] files with
    | Error e -> Error e
    | Ok [] -> Error (Printf.sprintf "empty snapshot directory %s" sdir)
    | Ok procs -> (
        match Sexp.process_of_string (read_file (changed_file dir)) with
        | Error e -> Error (Printf.sprintf "changed.sexp: %s" e)
        | Ok changed -> (
            match Model.of_processes procs with
            | t -> Ok (t, changed)
            | exception Invalid_argument e -> Error e))

(* A missing or unreadable file is a damaged journal: an [Error], never
   an escaping [Sys_error]. *)
let read_snapshot ~dir =
  try read_snapshot_exn ~dir with Sys_error e -> Error e

let model_digest (t : Model.t) =
  let buf = Buffer.create 1024 in
  List.iter
    (fun p ->
      Buffer.add_string buf p;
      Buffer.add_char buf '\000';
      Buffer.add_string buf (Sexp.process_to_string (Model.private_ t p));
      Buffer.add_char buf '\000')
    (Model.parties t);
  Digest.to_hex (Digest.string (Buffer.contents buf))
