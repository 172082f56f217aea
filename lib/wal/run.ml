(* Durable runs: plan.json + journal.jsonl; see run.mli for the
   contract. *)

exception Simulated_crash of int

module type KIND = sig
  val kind : string

  type plan
  type record

  val plan_to_json : plan -> Json.t
  val plan_of_json : Json.t -> (plan, string) result
  val record_to_json : record -> Json.t
  val record_of_json : Json.t -> (record, string) result
  val is_seal : record -> bool
end

(* ------------------------------------------------------------------ *)
(* Checksummed lines                                                   *)
(* ------------------------------------------------------------------ *)

(* One {"crc":"<md5-hex-of-body>","body":j} line per record, appended
   and fsynced before the writer returns. *)
let append_line ~path body_json =
  let body = Json.to_string body_json in
  let crc = Digest.to_hex (Digest.string body) in
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc {|{"crc":"|};
      output_string oc crc;
      output_string oc {|","body":|};
      output_string oc body;
      output_string oc "}\n";
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc))

(* The prefix is fixed, so the body text the checksum covers is
   recovered by stripping prefix and the final '}'. A line that fails
   its shape or checksum may be a crashed writer's partial write
   ([`Torn]); one whose checksum holds was written whole, so a body the
   decoder refuses is never torn ([`Bad]). *)
let parse_line ~decode line =
  let prefix = {|{"crc":"|} and mid = {|","body":|} in
  let plen = String.length prefix and mlen = String.length mid in
  let ll = String.length line in
  if ll < plen + 32 + mlen + 1 then Error (`Torn "short line")
  else if String.sub line 0 plen <> prefix then Error (`Torn "bad line prefix")
  else if String.sub line (plen + 32) mlen <> mid then Error (`Torn "bad line shape")
  else if line.[ll - 1] <> '}' then Error (`Torn "unterminated line")
  else
    let body_off = plen + 32 + mlen in
    let body = String.sub line body_off (ll - 1 - body_off) in
    if Digest.to_hex (Digest.string body) <> String.sub line plen 32 then
      Error (`Torn "checksum mismatch")
    else
      match Result.bind (Json.of_string body) decode with
      | Ok r -> Ok r
      | Error e -> Error (`Bad e)

(* The committed records, whether a torn tail was dropped, and the end
   offset of the last committed line. A missing file reads as empty;
   corruption before the final line is an error. *)
let read_lines ~path ~decode =
  match Dir.read_file path with
  | exception Sys_error _ when not (Sys.file_exists path) -> Ok ([], false, 0)
  | exception Sys_error e -> Error e
  | contents ->
      (* split into (line, end-offset-including-newline) *)
      let lines = ref [] in
      let start = ref 0 in
      String.iteri
        (fun i c ->
          if c = '\n' then (
            lines := (String.sub contents !start (i - !start), i + 1) :: !lines;
            start := i + 1))
        contents;
      (* a final chunk without '\n' is by construction torn *)
      let tail_torn = !start < String.length contents in
      let lines = List.rev !lines in
      let total = List.length lines in
      let rec go acc valid idx = function
        | [] -> Ok (List.rev acc, tail_torn, valid)
        | (line, endoff) :: rest -> (
            match parse_line ~decode line with
            | Ok r -> go (r :: acc) endoff (idx + 1) rest
            | Error (`Torn _) when idx = total - 1 ->
                (* torn tail: the crashed writer's partial last line *)
                Ok (List.rev acc, true, valid)
            | Error (`Torn e | `Bad e) ->
                Error
                  (Printf.sprintf "%s: corrupt record on line %d: %s" path
                     (idx + 1) e))
      in
      go [] 0 0 lines

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

let plan_file dir = Filename.concat dir "plan.json"
let journal_file dir = Filename.concat dir "journal.jsonl"
let digest_of j = Digest.to_hex (Digest.string (Json.to_string j))

(* The three fields of plan.json, with the plan body unverified. *)
let read_plan dir =
  let path = plan_file dir in
  let err e = Error (Printf.sprintf "%s: %s" path e) in
  match Dir.read_file path with
  | exception Sys_error e -> Error e
  | text -> (
      match Json.of_string text with
      | Error e -> err e
      | Ok j -> (
          match (Json.member "kind" j, Json.member "digest" j, Json.member "plan" j) with
          | Some (Json.Str kind), Some (Json.Str digest), Some plan ->
              Ok (path, kind, digest, plan)
          | _ -> err "not a run plan"))

let kind ~dir = Result.map (fun (_, kind, _, _) -> kind) (read_plan dir)

module Make (K : KIND) = struct
  type t = {
    dir : string;
    digest : string;
    mutable committed : int;
    crash_after : int option;
  }

  type loaded = {
    plan : K.plan;
    digest : string;
    records : K.record list;
    sealed : bool;
    torn : bool;
    valid_bytes : int;
  }

  (* Every record carries its plan's digest, so a journal can never be
     replayed against another run's plan. *)
  let record_to_json digest r =
    Json.Obj [ ("plan", Json.Str digest); ("record", K.record_to_json r) ]

  let record_of_json digest j =
    match (Json.member "plan" j, Json.member "record" j) with
    | Some (Json.Str d), Some r when d = digest -> K.record_of_json r
    | Some (Json.Str _), Some _ -> Error "record of another plan"
    | _ -> Error "not a run record"

  (* The one crash check: every driver, fresh or resumed, dies here. *)
  let crash_point t =
    match t.crash_after with
    | Some k when k = t.committed -> raise (Simulated_crash k)
    | _ -> ()

  let create ?crash_after ~dir plan =
    if Sys.file_exists (plan_file dir) || Sys.file_exists (journal_file dir) then
      Error (Printf.sprintf "%s already holds a run; use resume instead" dir)
    else
      let body = K.plan_to_json plan in
      let digest = digest_of body in
      match
        Dir.mkdir_p dir;
        Dir.write_atomic (plan_file dir)
          (Json.to_string
             (Json.Obj
                [
                  ("kind", Json.Str K.kind);
                  ("digest", Json.Str digest);
                  ("plan", body);
                ]))
      with
      | exception Sys_error e -> Error e
      | exception Unix.Unix_error (e, _, p) ->
          Error (Printf.sprintf "%s: %s" p (Unix.error_message e))
      | () ->
          let t = { dir; digest; committed = 0; crash_after } in
          crash_point t;
          Ok t

  let load ~dir =
    let ( let* ) = Result.bind in
    let* path, kind, digest, body = read_plan dir in
    let err e = Error (Printf.sprintf "%s: %s" path e) in
    if kind <> K.kind then
      err (Printf.sprintf "a %s run, not a %s run" kind K.kind)
    else if digest <> digest_of body then err "plan digest mismatch"
    else
      match K.plan_of_json body with
      | Error e -> err e
      | Ok plan ->
          let* records, torn, valid_bytes =
            read_lines ~path:(journal_file dir) ~decode:(record_of_json digest)
          in
          let rec sealed = function
            | [] -> Ok false
            | [ r ] -> Ok (K.is_seal r)
            | r :: rest ->
                if K.is_seal r then
                  Error (Printf.sprintf "%s: records after the seal" (journal_file dir))
                else sealed rest
          in
          let* sealed = sealed records in
          Ok { plan; digest; records; sealed; torn; valid_bytes }

  let reopen ?crash_after ~dir l =
    if l.torn then begin
      Unix.truncate (journal_file dir) l.valid_bytes;
      Dir.fsync_dir dir
    end;
    { dir; digest = l.digest; committed = List.length l.records; crash_after }

  let commit t r =
    append_line ~path:(journal_file t.dir) (record_to_json t.digest r);
    t.committed <- t.committed + 1;
    crash_point t
end
