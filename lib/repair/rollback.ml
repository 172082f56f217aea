(** The causal-rollback half of the self-healing repair loop.

    When amendment fails mid-protocol, the applied change must not stay
    half-propagated: every party the change causally reached is rolled
    back to its pre-change snapshot, every party it did not reach is
    left untouched. The causal cone is computed from the delivery
    history (who processed an announcement from whom, and when); the
    restore itself is journal-backed through {!Chorev_wal.Wal}, so a
    crash in the middle resumes byte-identically.

    This module is deliberately below the choreography layer: parties
    are names, snapshots are sexp strings, and the actual restore is a
    caller-provided callback — the simulator and the CLI plug their own
    model types in. *)

module Wal = Chorev_wal.Wal
module Json = Chorev_wal.Json
module Dir = Chorev_wal.Dir
module Obs = Chorev_obs.Obs
module Metrics = Chorev_obs.Metrics

let c_rolled_back = Metrics.counter "repair.rolled_back"

let str s = Chorev_obs.Sink.Str s
let int i = Chorev_obs.Sink.Int i

(* ------------------------- the causal cone ------------------------ *)

type edge = {
  at : int;  (** delivery tick *)
  src : string;
  dst : string;
}

(** Which parties the change reached: time-ordered BFS over the
    delivery edges. A party joins the cone when it processes a message
    from a party already in the cone — so an edge only infects its
    destination if its source was contaminated at an earlier (or equal)
    tick. Returns the origin first, then parties in discovery order
    (deterministic: edges are sorted by [(at, src, dst)] before the
    sweep). *)
let cone ~origin ~edges =
  let edges =
    List.sort
      (fun a b ->
        match compare a.at b.at with
        | 0 -> (
            match String.compare a.src b.src with
            | 0 -> String.compare a.dst b.dst
            | c -> c)
        | c -> c)
      edges
  in
  let infected = Hashtbl.create 8 in
  Hashtbl.replace infected origin ();
  let order = ref [ origin ] in
  List.iter
    (fun e ->
      if Hashtbl.mem infected e.src && not (Hashtbl.mem infected e.dst) then begin
        Hashtbl.replace infected e.dst ();
        order := e.dst :: !order
      end)
    edges;
  List.rev !order

(* --------------------------- the journal -------------------------- *)

type meta = {
  owner : string;  (** the change originator (first element of the cone) *)
  parties : string list;  (** the cone, in restore order *)
  prelude : string;
      (** rendered output of the interrupted run up to the rollback —
          replayed verbatim on resume so an interrupted-and-resumed run
          prints byte-identically to an uninterrupted one *)
}

type record = Start | Restored of string | Sealed

let record_to_json = function
  | Start -> Json.Obj [ ("t", Json.Str "start") ]
  | Restored party ->
      Json.Obj [ ("t", Json.Str "restored"); ("party", Json.Str party) ]
  | Sealed -> Json.Obj [ ("t", Json.Str "sealed") ]

let record_of_json j =
  match Json.member "t" j with
  | Some (Json.Str "start") -> Ok Start
  | Some (Json.Str "restored") -> (
      match Json.member "party" j with
      | Some (Json.Str p) -> Ok (Restored p)
      | _ -> Error "restored record without party")
  | Some (Json.Str "sealed") -> Ok Sealed
  | _ -> Error "unknown rollback record"

let journal_path dir = Filename.concat dir "journal.jsonl"
let meta_path dir = Filename.concat dir "meta.json"
let pre_path dir party = Filename.concat (Filename.concat dir "pre") (Dir.sanitize party ^ ".sexp")
let state_path dir party =
  Filename.concat (Filename.concat dir "state") (Dir.sanitize party ^ ".sexp")

let meta_to_json m =
  Json.Obj
    [
      ("kind", Json.Str "rollback");
      ("owner", Json.Str m.owner);
      ("parties", Json.Arr (List.map (fun p -> Json.Str p) m.parties));
      ("prelude", Json.Str m.prelude);
    ]

let meta_of_json j =
  match
    (Json.member "kind" j, Json.member "owner" j, Json.member "parties" j,
     Json.member "prelude" j)
  with
  | Some (Json.Str "rollback"), Some (Json.Str owner), Some (Json.Arr ps),
    Some (Json.Str prelude) ->
      let parties =
        List.filter_map (function Json.Str p -> Some p | _ -> None) ps
      in
      if List.length parties <> List.length ps then
        Error "non-string party in rollback meta"
      else Ok { owner; parties; prelude }
  | _ -> Error "not a rollback meta.json"

(** Does [dir] hold a rollback journal (as opposed to an evolution
    one)? Dispatched on by [chorev resume]. *)
let journal_exists ~dir =
  Sys.file_exists (journal_path dir)
  && Sys.file_exists (meta_path dir)
  &&
  match Json.of_string (Dir.read_file (meta_path dir)) with
  | Ok j -> (
      match Json.member "kind" j with
      | Some (Json.Str "rollback") -> true
      | _ -> false)
  | Error _ -> false

exception Simulated_crash of int
(** Raised by {!restore_all} after the [crash_after]-th committed
    restore — the test hook for kill-during-rollback. *)

type writer = {
  dir : string;
  meta : meta;
  pre : (string * string) list;  (** cone party -> pre-change sexp *)
  wal : Wal.writer;
}

(** Open a fresh rollback journal: write [pre/<party>.sexp] for every
    cone party, [state/<party>.sexp] for {e every} party of the
    protocol (so a resuming process can rebuild the full model), then
    [meta.json], then the [start] record — all durable before [start]
    returns. *)
let start ~dir ~owner ~cone:parties ~prelude ~pre ~state =
  Dir.mkdir_p (Filename.concat dir "pre");
  Dir.mkdir_p (Filename.concat dir "state");
  List.iter (fun (party, sexp) -> Dir.write_atomic (pre_path dir party) sexp) pre;
  List.iter
    (fun (party, sexp) -> Dir.write_atomic (state_path dir party) sexp)
    state;
  let meta = { owner; parties; prelude } in
  Dir.write_atomic (meta_path dir) (Json.to_string (meta_to_json meta));
  let wal = Wal.open_append ~path:(journal_path dir) in
  Wal.append wal (record_to_json Start);
  { dir; meta; pre; wal }

let close w = Wal.close w.wal

(** Restore every cone party through [restore], committing each one
    with a journal record before moving on. [already] names parties
    whose restore records are already on disk (the resume path): they
    are {e re-restored} (the in-memory effect of a pre-crash restore
    died with the process; restoring is an idempotent overwrite) but
    not re-journalled. [crash_after n] raises {!Simulated_crash} once
    [n] restores have been committed {e by this call}. Appends the
    [sealed] record when the whole cone is done. *)
let restore_all ?crash_after ?(already = []) w ~restore =
  Obs.span "repair.rollback"
    ~attrs:
      [ ("owner", str w.meta.owner); ("cone", int (List.length w.meta.parties)) ]
  @@ fun () ->
  let committed = ref 0 in
  List.iter
    (fun party ->
      let pre =
        match List.assoc_opt party w.pre with
        | Some s -> s
        | None -> Dir.read_file (pre_path w.dir party)
      in
      restore ~party ~pre;
      if not (List.mem party already) then begin
        Wal.append w.wal (record_to_json (Restored party));
        Metrics.incr c_rolled_back;
        incr committed;
        match crash_after with
        | Some n when !committed >= n -> raise (Simulated_crash n)
        | _ -> ()
      end)
    w.meta.parties;
  Wal.append w.wal (record_to_json Sealed)

(** Journal-less variant for embedded drivers (the simulator without a
    [--rollback-journal] directory): restore each [(party, pre)] pair
    under the same span and counter, with no durability. *)
let restore_inline ~owner ~cone:pairs ~restore =
  Obs.span "repair.rollback"
    ~attrs:[ ("owner", str owner); ("cone", int (List.length pairs)) ]
  @@ fun () ->
  List.iter
    (fun (party, pre) ->
      restore ~party ~pre;
      Metrics.incr c_rolled_back)
    pairs

(* ---------------------------- recovery ---------------------------- *)

type loaded = {
  l_meta : meta;
  l_pre : (string * string) list;  (** cone party -> pre-change sexp *)
  l_state : (string * string) list;  (** every party -> post-run sexp *)
  restored : string list;  (** committed restores, journal order *)
  sealed : bool;
  l_valid_bytes : int;
}

let load_exn ~dir =
  match Json.of_string (Dir.read_file (meta_path dir)) with
  | Error e -> Error ("meta.json: " ^ e)
  | Ok j -> (
      match meta_of_json j with
      | Error e -> Error e
      | Ok meta -> (
          match Wal.read ~path:(journal_path dir) ~decode:record_of_json with
          | Error e -> Error e
          | Ok { Wal.records; torn = _; valid_bytes } ->
              let restored =
                List.filter_map
                  (function Restored p -> Some p | _ -> None)
                  records
              in
              let sealed = List.exists (function Sealed -> true | _ -> false) records in
              let read_of path_of parties =
                List.map (fun p -> (p, Dir.read_file (path_of dir p))) parties
              in
              let state_parties =
                Sys.readdir (Filename.concat dir "state")
                |> Array.to_list |> List.sort String.compare
                |> List.filter_map (fun f ->
                       Filename.chop_suffix_opt ~suffix:".sexp" f)
              in
              (* state files are keyed by sanitized name; cone parties
                 we can map back through meta, the rest only matter as
                 (sanitized-name, sexp) payloads for the caller *)
              let unsanitized p =
                match
                  List.find_opt
                    (fun q -> String.equal (Dir.sanitize q) p)
                    meta.parties
                with
                | Some q -> q
                | None -> p
              in
              let l_state =
                List.map
                  (fun f ->
                    ( unsanitized f,
                      Dir.read_file
                        (Filename.concat (Filename.concat dir "state")
                           (f ^ ".sexp")) ))
                  state_parties
              in
              Ok
                {
                  l_meta = meta;
                  l_pre = read_of pre_path meta.parties;
                  l_state;
                  restored;
                  sealed;
                  l_valid_bytes = valid_bytes;
                }))

(* A missing or unreadable file (meta, [state/], a [pre/] snapshot) is
   a damaged journal: an [Error], never an escaping [Sys_error]. *)
let load ~dir =
  try load_exn ~dir with Sys_error e -> Error e

(** Resume an interrupted rollback: re-open the journal at its last
    valid byte, re-apply {e every} cone restore through [restore]
    (idempotent overwrite — the in-memory effect of pre-crash restores
    did not survive), journal only the missing ones, and seal. Returns
    the loaded journal so the caller can rebuild the surrounding model
    (from [l_state] overlaid with [l_pre]) and re-print the prelude.
    No-op (beyond the load) when the journal is already sealed. *)
let resume ~dir ~restore =
  match load ~dir with
  | Error e -> Error e
  | Ok l ->
      if l.sealed then begin
        (* finished before the crash: re-apply nothing, the state and
           pre files already describe the final model *)
        List.iter
          (fun party ->
            match List.assoc_opt party l.l_pre with
            | Some pre -> restore ~party ~pre
            | None -> ())
          l.l_meta.parties;
        Ok l
      end
      else begin
        let w =
          {
            dir;
            meta = l.l_meta;
            pre = l.l_pre;
            wal = Wal.reopen ~path:(journal_path dir) ~valid_bytes:l.l_valid_bytes;
          }
        in
        restore_all ~already:l.restored w ~restore;
        close w;
        Ok l
      end
