(** The causal-rollback half of the self-healing repair loop.

    When amendment fails mid-protocol, the applied change must not stay
    half-propagated: every party the change causally reached is rolled
    back to its pre-change snapshot, every party it did not reach is
    left untouched. The causal cone is computed from the delivery
    history (who processed an announcement from whom, and when); the
    restore itself is journal-backed through {!Chorev_wal.Run}, so a
    crash in the middle resumes byte-identically.

    This module is deliberately below the choreography layer: parties
    are names, snapshots are sexp strings, and the actual restore is a
    caller-provided callback — the simulator and the CLI plug their own
    model types in. *)

module Json = Chorev_wal.Json
module Sexp = Chorev_bpel.Sexp
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

type plan = {
  owner : string;
  cone : string list;
  prelude : string;
  pre : (string * string) list;
  state : (string * string) list;
}

type record = Restored of string | Sealed of { digest : string }

(* Every party's process once the cone is restored: [state] with the
   cone's pre-change snapshots laid over it. *)
let final_state plan =
  List.map
    (fun (party, sexp) ->
      (party, Option.value ~default:sexp (List.assoc_opt party plan.pre)))
    plan.state

let ( let* ) = Result.bind

(* The [rollback] codec. *)
module Kind = struct
  let kind = "rollback"

  type nonrec plan = plan
  type nonrec record = record

  let pairs_to_json ps =
    Json.Arr (List.map (fun (p, s) -> Json.Arr [ Json.Str p; Json.Str s ]) ps)

  let pairs_of_json = function
    | Some ps ->
        Json.list
          (function
            | Json.Arr [ Json.Str p; Json.Str s ] -> Ok (p, s)
            | _ -> Error "rollback plan: malformed snapshot")
          ps
    | None -> Error "rollback plan: missing snapshots"

  let plan_to_json p =
    Json.Obj
      [
        ("owner", Json.Str p.owner);
        ("cone", Json.Arr (List.map (fun q -> Json.Str q) p.cone));
        ("prelude", Json.Str p.prelude);
        ("pre", pairs_to_json p.pre);
        ("state", pairs_to_json p.state);
      ]

  let plan_of_json j =
    match (Json.member "owner" j, Json.member "cone" j, Json.member "prelude" j) with
    | Some (Json.Str owner), Some cs, Some (Json.Str prelude) ->
        let* cone =
          Json.list
            (function Json.Str q -> Ok q | _ -> Error "rollback plan: bad cone")
            cs
        in
        let* pre = pairs_of_json (Json.member "pre" j) in
        let* state = pairs_of_json (Json.member "state" j) in
        if List.for_all (fun q -> List.mem_assoc q pre) cone then
          Ok { owner; cone; prelude; pre; state }
        else Error "rollback plan: cone party without a snapshot"
    | _ -> Error "rollback plan: missing field"

  let record_to_json = function
    | Restored party ->
        Json.Obj [ ("rec", Json.Str "restored"); ("party", Json.Str party) ]
    | Sealed { digest } ->
        Json.Obj [ ("rec", Json.Str "sealed"); ("digest", Json.Str digest) ]

  let record_of_json j =
    match (Json.member "rec" j, Json.member "party" j, Json.member "digest" j) with
    | Some (Json.Str "restored"), Some (Json.Str p), _ -> Ok (Restored p)
    | Some (Json.Str "sealed"), _, Some (Json.Str digest) -> Ok (Sealed { digest })
    | _ -> Error "unknown rollback record"

  let is_seal = function Sealed _ -> true | Restored _ -> false
end

module Run = Chorev_wal.Run.Make (Kind)

type t = { run : Run.t; plan : plan; already : string list }

let start ?crash_after ~dir plan =
  Result.map (fun run -> { run; plan; already = [] }) (Run.create ?crash_after ~dir plan)

(** Restore every cone party through [restore], committing each one
    with a journal record before moving on. Parties the journal already
    holds (the resume path) are {e re-restored} (the in-memory effect of
    a pre-crash restore died with the process; restoring is an
    idempotent overwrite) but not re-journalled. Seals the run when the
    whole cone is done. *)
let restore_all t ~restore =
  Obs.span "repair.rollback"
    ~attrs:
      [ ("owner", str t.plan.owner); ("cone", int (List.length t.plan.cone)) ]
  @@ fun () ->
  List.iter
    (fun party ->
      restore ~party ~pre:(List.assoc party t.plan.pre);
      if not (List.mem party t.already) then begin
        Metrics.incr c_rolled_back;
        Run.commit t.run (Restored party)
      end)
    t.plan.cone;
  Run.commit t.run
    (Sealed { digest = Sexp.processes_digest (final_state t.plan) })

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

type loaded = Run.loaded = {
  plan : plan;
  digest : string;
  records : record list;
  sealed : bool;
  torn : bool;
  valid_bytes : int;
}

let restored l =
  List.filter_map (function Restored p -> Some p | Sealed _ -> None) l.records

(* A sealed rollback must describe the state its restores produce. *)
let load ~dir =
  let* l = Run.load ~dir in
  match List.rev l.records with
  | Sealed { digest } :: _
    when digest <> Sexp.processes_digest (final_state l.plan) ->
      Error
        (Printf.sprintf "%s: sealed journal digest diverges from the plan"
           (Filename.concat dir "journal.jsonl"))
  | _ -> Ok l

(** Resume an interrupted rollback: re-apply {e every} cone restore
    through [restore] (idempotent overwrite — the in-memory effect of
    pre-crash restores did not survive), journal only the missing ones,
    and seal. A sealed rollback is re-applied without writing. *)
let resume ?crash_after ~dir ~restore () =
  let* l = load ~dir in
  if l.sealed then
    List.iter (fun party -> restore ~party ~pre:(List.assoc party l.plan.pre)) l.plan.cone
  else
    restore_all
      { run = Run.reopen ?crash_after ~dir l; plan = l.plan; already = restored l }
      ~restore;
  Ok l
