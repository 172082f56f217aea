(** Synchronous choreography execution engine.

    The paper's aFSA model assumes synchronous communication ("since
    Web services often use synchronous communication based on the HTTP
    protocol", Sec. 3.2): a message exchange is a joint step of sender
    and receiver. This engine executes a set of public processes
    jointly: a step on label [S#R#msg] is enabled when both the
    sender's and the receiver's automata have the transition from their
    current states (parties not involved don't move). The engine is
    what lets us *validate* the framework's central claim — bilateral
    consistency ⇔ deadlock-free interaction (see {!Conformance}). *)

module Afsa = Chorev_afsa.Afsa
module Label = Chorev_afsa.Label
module Sym = Chorev_afsa.Sym
module ISet = Afsa.ISet

type party_state = { party : string; automaton : Afsa.t; state : int }

type config = party_state list

type status =
  | Completed  (** every party is in a final state *)
  | Deadlock  (** no step enabled and not completed *)
  | Running

type system = { parties : (string * Afsa.t) list }

let make parties = { parties }

let initial (s : system) : config =
  List.map
    (fun (party, automaton) ->
      { party; automaton; state = Afsa.start automaton })
    s.parties

let find_party (c : config) p = List.find_opt (fun ps -> String.equal ps.party p) c

(* ε-closure of a party's current state set is not needed: generated
   publics are ε-free; we still follow ε-edges defensively via one-step
   closure when looking for moves. *)
let targets automaton state l = Afsa.step automaton state (Sym.L l)

(** Steps enabled in a configuration: [(label, next configuration)]. A
    label both of whose endpoints are parties of the system needs both
    to move; a label with an endpoint outside the system (an external
    observer's message) is not enabled. *)
let enabled (c : config) : (Label.t * config) list =
  let labels =
    List.concat_map (fun ps -> Afsa.alphabet ps.automaton) c
    |> List.sort_uniq Label.compare
  in
  List.concat_map
    (fun (l : Label.t) ->
      match (find_party c l.sender, find_party c l.receiver) with
      | Some s, Some r ->
          let st = ISet.elements (targets s.automaton s.state l) in
          let rt = ISet.elements (targets r.automaton r.state l) in
          List.concat_map
            (fun s' ->
              List.map
                (fun r' ->
                  let c' =
                    List.map
                      (fun ps ->
                        if String.equal ps.party l.sender then
                          { ps with state = s' }
                        else if String.equal ps.party l.receiver then
                          { ps with state = r' }
                        else ps)
                      c
                  in
                  (l, c'))
                rt)
            st
      | _ -> [])
    labels

let completed (c : config) =
  List.for_all (fun ps -> Afsa.is_final ps.automaton ps.state) c

let status c =
  if completed c then Completed
  else if enabled c = [] then Deadlock
  else Running

(* ------------------------------------------------------------------ *)
(* Exhaustive exploration                                              *)
(* ------------------------------------------------------------------ *)

type exploration = {
  configurations : int;
  deadlocks : config list;
  completions : int;
  truncated : bool;  (** state-space bound hit *)
}

let key (c : config) = List.map (fun ps -> (ps.party, ps.state)) c

let c_explorations = Chorev_obs.Metrics.counter "runtime.explore.runs"
let c_configurations = Chorev_obs.Metrics.counter "runtime.explore.configurations"

(** Exhaustive BFS over the joint state space (bounded by
    [max_configs], default 100_000). Collects deadlocked
    configurations. *)
let explore ?(max_configs = 100_000) (s : system) : exploration =
  Chorev_obs.Metrics.incr c_explorations;
  Chorev_obs.Obs.span "explore"
    ~attrs:[ ("parties", Chorev_obs.Sink.Int (List.length s.parties)) ]
  @@ fun () ->
  let seen = Hashtbl.create 256 in
  let q = Queue.create () in
  let c0 = initial s in
  Hashtbl.add seen (key c0) ();
  Queue.add c0 q;
  let deadlocks = ref [] in
  let completions = ref 0 in
  let truncated = ref false in
  while not (Queue.is_empty q) do
    let c = Queue.pop q in
    (match status c with
    | Completed -> incr completions
    | Deadlock -> deadlocks := c :: !deadlocks
    | Running ->
        List.iter
          (fun (_, c') ->
            let k = key c' in
            if not (Hashtbl.mem seen k) then
              if Hashtbl.length seen >= max_configs then truncated := true
              else begin
                Hashtbl.add seen k ();
                Queue.add c' q
              end)
          (enabled c));
    (* a completed configuration may still have enabled steps (loops
       past a final state): explore them too *)
    if status c = Completed then
      List.iter
        (fun (_, c') ->
          let k = key c' in
          if not (Hashtbl.mem seen k) then
            if Hashtbl.length seen >= max_configs then truncated := true
            else begin
              Hashtbl.add seen k ();
              Queue.add c' q
            end)
        (enabled c)
  done;
  Chorev_obs.Metrics.add c_configurations (Hashtbl.length seen);
  {
    configurations = Hashtbl.length seen;
    deadlocks = List.rev !deadlocks;
    completions = !completions;
    truncated = !truncated;
  }

(** Can the system reach a configuration where every party is final? *)
let can_complete ?max_configs s =
  let e = explore ?max_configs s in
  e.completions > 0

(** Is the system deadlock-free (no reachable stuck non-final
    configuration)? *)
let deadlock_free ?max_configs s =
  let e = explore ?max_configs s in
  e.deadlocks = []

(* ------------------------------------------------------------------ *)
(* Random runs                                                         *)
(* ------------------------------------------------------------------ *)

type run = {
  trace : Label.t list;
  outcome : status;  (** [Running] when [max_steps] was hit *)
}

(** One random run with a seeded PRNG (deterministic per seed). An
    explicit [?rng] overrides the seed-derived state so composed soaks
    (e.g. sim workloads fanned over the domain pool) can thread one
    stream deterministically. *)
let random_run ?rng ?(max_steps = 1_000) ~seed (s : system) : run =
  let rng =
    match rng with Some r -> r | None -> Random.State.make [| seed |]
  in
  let rec go c trace steps =
    if steps >= max_steps then { trace = List.rev trace; outcome = Running }
    else
      match enabled c with
      | [] ->
          {
            trace = List.rev trace;
            outcome = (if completed c then Completed else Deadlock);
          }
      | moves ->
          (* stop at completion with probability 1/2 so finite traces
             are produced for looping protocols *)
          if completed c && Random.State.bool rng then
            { trace = List.rev trace; outcome = Completed }
          else
            let l, c' = List.nth moves (Random.State.int rng (List.length moves)) in
            go c' (l :: trace) (steps + 1)
  in
  go (initial s) [] 0
