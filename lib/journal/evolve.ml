(** The [evolve] kind of durable run: [Evolution.run_from] with a
    [Round] record committed after every round. See evolve.mli for the
    recovery invariants. *)

module Model = Chorev_choreography.Model
module Consistency = Chorev_choreography.Consistency
module Evolution = Chorev_choreography.Evolution
module Process = Chorev_bpel.Process
module Sexp = Chorev_bpel.Sexp
module Json = Chorev_wal.Json

type plan = { model : Model.t; owner : string; changed : Process.t }

type record =
  | Round of {
      index : int;
      originator : string;
      adapted : (string * Process.t) list;
      summary : string;
    }
  | Done of { consistent : bool; digest : string }

let model_digest (t : Model.t) =
  Sexp.parties_digest
    (List.map (fun p -> (p, Model.private_ t p)) (Model.parties t))

let ( let* ) = Result.bind
let str = function Some (Json.Str s) -> Ok s | _ -> Error "missing string"
let sexp = function Json.Str s -> Sexp.process_of_string s | _ -> Error "not a process"

module Kind = struct
  let kind = "evolve"

  type nonrec plan = plan
  type nonrec record = record

  let plan_to_json p =
    Json.Obj
      [
        ("owner", Json.Str p.owner);
        ( "parties",
          Json.Arr
            (List.map
               (fun party ->
                 Json.Str (Sexp.process_to_string (Model.private_ p.model party)))
               (Model.parties p.model)) );
        ("changed", Json.Str (Sexp.process_to_string p.changed));
      ]

  let plan_of_json j =
    match (Json.member "owner" j, Json.member "parties" j, Json.member "changed" j) with
    | Some (Json.Str owner), Some ps, Some changed -> (
        let* procs = Json.list sexp ps in
        let* changed = sexp changed in
        match Model.of_processes procs with
        | exception (Invalid_argument e | Failure e) -> Error e
        | model -> (
            match Model.find_party model owner with
            | Error (`Unknown_party p) -> Error ("unknown owner " ^ p)
            | Ok _ when Process.party changed <> owner ->
                Error "changed process belongs to another party"
            | Ok _ -> Ok { model; owner; changed }))
    | _ -> Error "evolve plan: missing field"

  let record_to_json = function
    | Round { index; originator; adapted; summary } ->
        Json.Obj
          [
            ("rec", Json.Str "round");
            ("index", Json.Int index);
            ("originator", Json.Str originator);
            ( "adapted",
              Json.Arr
                (List.map
                   (fun (p, pr) ->
                     Json.Arr [ Json.Str p; Json.Str (Sexp.process_to_string pr) ])
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
    let field k = Json.member k j in
    match str (field "rec") with
    | Ok "round" -> (
        match
          (field "index", str (field "originator"), field "adapted", str (field "summary"))
        with
        | Some (Json.Int index), Ok originator, Some pairs, Ok summary ->
            let* adapted =
              Json.list
                (function
                  | Json.Arr [ Json.Str p; pr ] -> (
                      match sexp pr with
                      | Ok pr when Process.party pr = p -> Ok (p, pr)
                      | Ok _ -> Error ("round: process of another party for " ^ p)
                      | Error e -> Error e)
                  | _ -> Error "round: malformed adapted entry")
                pairs
            in
            Ok (Round { index; originator; adapted; summary })
        | _ -> Error "round: missing field")
    | Ok "done" -> (
        match (field "consistent", str (field "digest")) with
        | Some (Json.Bool consistent), Ok digest -> Ok (Done { consistent; digest })
        | _ -> Error "done: missing field")
    | _ -> Error "unknown record type"

  let is_seal = function Done _ -> true | Round _ -> false
end

module Run = Chorev_wal.Run.Make (Kind)

type outcome = {
  report : Evolution.report;
  round_logs : string list;
  digest : string;
  replayed : int;
}

(* The live tail: [Evolution]'s own loop, with each round committed
   before the loop builds on it and [Done] sealing the run. *)
let live ?config ?cache run ~logs (p : Evolution.progress) =
  let index = ref p.rounds_run and logs = ref (List.rev logs) in
  let on_round (round : Evolution.round) adapted =
    let summary = Fmt.str "%a" Evolution.pp_round round in
    Run.commit run
      (Round
         {
           index = !index;
           originator = round.originator;
           adapted;
           summary;
         });
    incr index;
    logs := summary :: !logs
  in
  let report = Evolution.run_from ?config ?cache ~on_round p in
  let digest = model_digest report.choreography in
  Run.commit run (Done { consistent = report.consistent; digest });
  { report; round_logs = List.rev !logs; digest; replayed = p.rounds_run }

let run ?config ?cache ?crash_after ~dir t ~owner ~changed =
  match Model.find_party t owner with
  | Error (`Unknown_party p) -> Error (Printf.sprintf "unknown party %s" p)
  | Ok _ ->
      let* run = Run.create ?crash_after ~dir { model = t; owner; changed } in
      Ok (live ?config ?cache run ~logs:[] (Evolution.start t ~owner ~changed))

(* A journaled adapted process must belong to a party of the model. *)
let known (p : Evolution.progress) adapted =
  List.for_all (fun (party, _) -> Model.member p.model party <> None) adapted

(* Replay the committed rounds — no algebra is re-run; the model
   advances by the recorded processes. A seal is trusted for neither
   its digest nor its verdict: both are recomputed on the replayed
   model, the verdict by the all-pairs check that ends
   [Evolution.run_from]. *)
let rec replay (p : Evolution.progress) logs = function
  | Round { index; originator; adapted; summary } :: more -> (
      match p.pending with
      | (o, _) :: _
        when index = p.rounds_run && String.equal o originator && known p adapted ->
          replay (Evolution.replay_round p ~adapted) (summary :: logs) more
      | _ ->
          Error
            (Printf.sprintf "round %d by %s does not follow the replayed state"
               index originator))
  | [ Done { consistent; digest } ] ->
      if model_digest p.model <> digest then
        Error "sealed journal digest diverges from the replayed state"
      else if Consistency.consistent p.model <> consistent then
        Error "sealed journal verdict diverges from the replayed state"
      else
        Ok
          (`Sealed
            {
              report = { Evolution.rounds = []; choreography = p.model; consistent };
              round_logs = List.rev logs;
              digest;
              replayed = p.rounds_run;
            })
  | [] -> Ok (`Open (p, List.rev logs))
  | Done _ :: _ -> Error "records after the seal"

let resume ?config ?cache ?crash_after ~dir () =
  let* l = Run.load ~dir in
  let { model; owner; changed } = l.plan in
  match replay (Evolution.start model ~owner ~changed) [] l.records with
  | Error e -> Error (Printf.sprintf "%s: %s" (Filename.concat dir "journal.jsonl") e)
  | Ok (`Sealed o) -> Ok o
  | Ok (`Open (p, logs)) ->
      Ok (live ?config ?cache (Run.reopen ?crash_after ~dir l) ~logs p)

let pp_outcome ppf o =
  Fmt.pf ppf "@[<v>%a@,choreography consistent: %b@,model digest: %s@]"
    (Fmt.list ~sep:Fmt.cut Fmt.string)
    o.round_logs o.report.consistent o.digest
