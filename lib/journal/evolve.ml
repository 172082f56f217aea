(** The resumable evolution driver: [Evolution.run]'s loop with a
    [Journal.Round] record committed after every round. See evolve.mli
    for the recovery invariants. *)

module Model = Chorev_choreography.Model
module Evolution = Chorev_choreography.Evolution
module Consistency = Chorev_choreography.Consistency
module Sexp = Chorev_bpel.Sexp
module Pool = Chorev_parallel.Pool

exception Simulated_crash of int

type outcome = {
  round_logs : string list;
  consistent : bool;
  digest : string;
  choreography : Model.t;
  replayed : int;
}

(* Mirrors of [Evolution.run]'s private helpers: the journaled loop must
   use the same pool and sink policy so it computes the same rounds. *)
let round_pool (config : Evolution.config) =
  Pool.sized (if config.jobs > 0 then config.jobs else Pool.default_size ())

let with_config_sink (config : Evolution.config) f =
  match config.obs with
  | None -> f ()
  | Some sink -> Chorev_obs.Obs.with_sink sink f

let summary_of_round r = Fmt.str "%a" Evolution.pp_round r

(* The live tail of the loop, identical to [Evolution.run]'s [go]
   except that every round is journaled before the loop advances
   (write-ahead: the record is durable before its effects are built
   upon) and [Done] seals the run. *)
let live w (config : Evolution.config) ?crash_after ~replayed t logs remaining
    pending k =
  let finish t logs =
    let consistent = Consistency.consistent ~pool:(round_pool config) t in
    let digest = Journal.model_digest t in
    Journal.append w (Journal.Done { consistent; digest });
    Journal.close w;
    {
      round_logs = List.rev logs;
      consistent;
      digest;
      choreography = t;
      replayed;
    }
  in
  let rec go t logs remaining pending k =
    match pending with
    | [] -> finish t logs
    | _ when remaining <= 0 -> finish t logs
    | (owner, proc) :: rest ->
        let round, t', adapted = Evolution.run_round config t owner proc in
        let summary = summary_of_round round in
        Journal.append w
          (Journal.Round
             {
               index = k;
               originator = owner;
               changed = Sexp.process_to_string proc;
               adapted =
                 List.map
                   (fun (p, pr) -> (p, Sexp.process_to_string pr))
                   adapted;
               summary;
             });
        (match crash_after with
        | Some c when k + 1 >= c ->
            Journal.close w;
            raise (Simulated_crash (k + 1))
        | _ -> ());
        (* pending reconstruction against the pre-round model [t] — the
           exact filter [Evolution.run] applies *)
        let new_pending = Evolution.surviving_pending t adapted in
        go t' (summary :: logs) (remaining - 1) (rest @ new_pending) (k + 1)
  in
  go t logs remaining pending k

let run ?(config = Evolution.default) ?crash_after ~dir t ~owner ~changed =
  match Model.find_party t owner with
  | Error (`Unknown_party p) -> Error (Printf.sprintf "unknown party %s" p)
  | Ok _ ->
      if Chorev_wal.Dir.has_journal dir then
        Error
          (Printf.sprintf "%s already holds a journal; use resume instead" dir)
      else (
        Journal.write_snapshot ~dir t ~changed;
        let w = Journal.create ~dir in
        Journal.append w
          (Journal.Start
             {
               owner;
               parties = Model.parties t;
               digest = Journal.model_digest t;
             });
        Ok
          ( with_config_sink config @@ fun () ->
            live w config ?crash_after ~replayed:0 t [] config.max_rounds
              [ (owner, changed) ]
              0 ))

let decode_adapted pairs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (p, s) :: rest -> (
        match Sexp.process_of_string s with
        | Ok proc -> go ((p, proc) :: acc) rest
        | Error e -> Error (Printf.sprintf "adapted process of %s: %s" p e))
  in
  go [] pairs

let resume ?(config = Evolution.default) ~dir () =
  match Journal.read ~dir with
  | Error e -> Error e
  | Ok { records = []; _ } ->
      Error (Printf.sprintf "journal in %s holds no complete record" dir)
  | Ok { records = Journal.Start { owner; digest = start_digest; _ } :: rest;
         valid_bytes;
         torn = _;
       } -> (
      match Journal.read_snapshot ~dir with
      | Error e -> Error e
      | Ok (t, changed) ->
          if Journal.model_digest t <> start_digest then
            Error "snapshot does not match the journal's start record"
          else
            (* Replay committed rounds from the journal — no algebra is
               re-run; the model advances by the recorded processes and
               pending work is rebuilt with the live loop's own
               pre-round filter. *)
            let rec replay t logs remaining pending k = function
              | Journal.Round { index; originator; changed; adapted; summary }
                :: more -> (
                  if index <> k then
                    Error
                      (Printf.sprintf
                         "journal out of order: expected round %d, found %d" k
                         index)
                  else
                    match pending with
                    | (p, _) :: rest_pending when String.equal p originator -> (
                        match
                          (Sexp.process_of_string changed, decode_adapted adapted)
                        with
                        | Error e, _ -> Error ("changed process: " ^ e)
                        | _, Error e -> Error e
                        | Ok proc, Ok adapted ->
                            let pre = t in
                            let t = Model.update t proc in
                            let t =
                              List.fold_left
                                (fun m (_, pr) -> Model.update m pr)
                                t adapted
                            in
                            let pending =
                              rest_pending
                              @ Evolution.surviving_pending pre adapted
                            in
                            replay t (summary :: logs) (remaining - 1) pending
                              (k + 1) more)
                    | _ ->
                        Error
                          (Printf.sprintf
                             "journal does not match replay state: round %d \
                              originated by %s but %s was pending"
                             k originator
                             (match pending with
                             | (p, _) :: _ -> p
                             | [] -> "nothing")) )
              | [ Journal.Done { consistent; digest } ] ->
                  Ok
                    (`Complete
                      {
                        round_logs = List.rev logs;
                        consistent;
                        digest;
                        choreography = t;
                        replayed = k;
                      })
              | [] -> Ok (`Partial (t, logs, remaining, pending, k))
              | Journal.Start _ :: _ -> Error "unexpected second start record"
              | Journal.Done _ :: _ -> Error "records found after done"
            in
            (match replay t [] config.max_rounds [ (owner, changed) ] 0 rest with
            | Error e -> Error e
            | Ok (`Complete o) -> Ok o
            | Ok (`Partial (t, logs, remaining, pending, k)) ->
                let w = Journal.reopen ~dir ~valid_bytes in
                Ok
                  ( with_config_sink config @@ fun () ->
                    live w config ~replayed:k t logs remaining pending k )))
  | Ok _ -> Error "journal does not begin with a start record"

let pp_outcome ppf o =
  Fmt.pf ppf "@[<v>%a@,choreography consistent: %b@,model digest: %s@]"
    (Fmt.list ~sep:Fmt.cut Fmt.string)
    o.round_logs o.consistent o.digest
