(** Multi-seed soak: fan a seed × fault-profile sweep of {!Sim.run}
    out over the domain pool and check every run against the
    synchronous oracle ({!Chorev_choreography.Protocol.run}): same
    [agreed] verdict, and a language-equal final public process for
    every party. The oracle is computed once; each pool task works on a
    {!Chorev_choreography.Model.copy} of the choreography so the shared
    automata's lazy CSRs are never built concurrently. *)

module Model = Chorev_choreography.Model
module Protocol = Chorev_choreography.Protocol
module Pool = Chorev_parallel.Pool

type check = {
  seed : int;
  profile : string;
  converged : bool;
  agreed_match : bool;  (** sim verdict equals the oracle's *)
  final_match : bool;
      (** every party's final public is language-equal to the oracle's *)
  ticks : int;
  sent : int;
  dropped : int;
  retries : int;
}

let ok c = c.converged && c.agreed_match && c.final_match

type summary = {
  runs : int;
  failures : check list;
  max_ticks_seen : int;
  total_sent : int;
  total_dropped : int;
  total_retries : int;
}

let models_match a b =
  let pa = Model.parties a and pb = Model.parties b in
  pa = pb
  && List.for_all
       (fun p ->
         Chorev_afsa.Equiv.equal_language (Model.public a p) (Model.public b p))
       pa

(** Run [seeds] × [profiles] simulations against the oracle. The runs
    fan out over [?pool] (default {!Chorev_parallel.Pool.default});
    results are in deterministic [profiles]-major order regardless of
    pool size. Traces are disabled — replay a failing [(seed, profile)]
    with {!Sim.run} to get one. *)
let run ?pool ?(profiles = [ Fault.lossy (); Fault.jittery; Fault.chaos () ])
    ?(seeds = List.init 50 Fun.id) ?max_ticks (model : Model.t) ~owner
    ~changed =
  Chorev_obs.Obs.span "sim.soak"
    ~attrs:
      [
        ("seeds", Chorev_obs.Sink.Int (List.length seeds));
        ("profiles", Chorev_obs.Sink.Int (List.length profiles));
      ]
  @@ fun () ->
  let oracle = Protocol.run model ~owner ~changed in
  let jobs =
    List.concat_map
      (fun profile -> List.map (fun seed -> (profile, seed)) seeds)
      profiles
  in
  Pool.map ?pool
    (fun (profile, seed) ->
      let m = Model.copy model in
      let r =
        Sim.run ~seed ~profile ?max_ticks ~trace:false m ~owner ~changed
      in
      {
        seed;
        profile = profile.Fault.name;
        converged = r.Sim.converged;
        agreed_match = r.Sim.agreed = oracle.Protocol.agreed;
        final_match = models_match r.Sim.final oracle.Protocol.final;
        ticks = r.Sim.stats.Sim.ticks;
        sent = r.Sim.stats.Sim.sent;
        dropped = r.Sim.stats.Sim.dropped;
        retries = r.Sim.stats.Sim.retries;
      })
    jobs

let summarize checks =
  List.fold_left
    (fun acc c ->
      {
        runs = acc.runs + 1;
        failures = (if ok c then acc.failures else c :: acc.failures);
        max_ticks_seen = max acc.max_ticks_seen c.ticks;
        total_sent = acc.total_sent + c.sent;
        total_dropped = acc.total_dropped + c.dropped;
        total_retries = acc.total_retries + c.retries;
      })
    {
      runs = 0;
      failures = [];
      max_ticks_seen = 0;
      total_sent = 0;
      total_dropped = 0;
      total_retries = 0;
    }
    checks
  |> fun s -> { s with failures = List.rev s.failures }

let all_ok checks = List.for_all ok checks

(* ----------------------- bad-change injection ---------------------- *)

type inject_check = {
  i_seed : int;
  i_class : string;  (** "no-adapt" | "repair" | "starved" *)
  i_converged : bool;
  i_agreed : bool;
  i_repairs : int;
  i_cone : int;  (** rolled-back cone size; 0 = no rollback ran *)
  i_ok : bool;  (** repaired, or causally reverted — never half-applied *)
}

let inject_ok c = c.i_ok

(** Byte-level equality against the pre-change snapshot: after a
    rollback, cone parties were restored and everyone else was never
    touched, so {e every} party must serialize identically. *)
let reverted_exactly ~pre ~final =
  let ps = Model.parties pre in
  ps = Model.parties final
  && List.for_all
       (fun p ->
         String.equal
           (Chorev_bpel.Sexp.process_to_string (Model.private_ final p))
           (Chorev_bpel.Sexp.process_to_string (Model.private_ pre p)))
       ps

(* Three seed classes bias the run toward the three repair outcomes:
   no adaptation at all (rollback is the only exit), a generous
   amendment search, and a fuel-starved one that degrades to
   unrepairable. The repair classes disable the engine's own adaptation
   ([auto_apply = false]) so the amendment search is the only healer —
   otherwise ordinary propagation fixes the partner before the search
   ever runs. The invariant below is the same for all three. *)
let inject_class seed =
  let no_engine_adapt c = { c with Chorev_config.Config.auto_apply = false } in
  match seed mod 3 with
  | 0 -> ("no-adapt", false, Chorev_config.Config.default)
  | 1 ->
      ("repair", true, no_engine_adapt Chorev_config.Config.(with_repair default))
  | _ ->
      ( "starved",
        true,
        no_engine_adapt Chorev_config.Config.(with_repair ~fuel:40 default) )

(** Soak the self-healing loop: [runs] seeded bad-change injections
    (each decorating [profile] via {!Fault.with_inject}), rollback
    armed. A run passes iff it ends {e repaired} (agreed, converged, no
    rollback) or {e causally reverted} (agreed, and every party
    byte-identical to its pre-change snapshot) — never half-applied.
    Results are in seed order regardless of pool size. *)
let run_inject ?pool ?(runs = 60) ?(inject_at = 10)
    ?(profile = Fault.lossy ()) (model : Model.t) ~owner =
  Chorev_obs.Obs.span "sim.soak.inject"
    ~attrs:[ ("runs", Chorev_obs.Sink.Int runs) ]
  @@ fun () ->
  let changed = Model.private_ model owner in
  Pool.map ?pool
    (fun seed ->
      let m = Model.copy model in
      let klass, adapt, config = inject_class seed in
      let profile = Fault.with_inject ~at:inject_at ~seed profile in
      let r =
        Sim.run ~seed ~profile ~adapt ~engine_config:config ~rollback:true
          ~trace:false m ~owner ~changed
      in
      let i_ok =
        match r.Sim.rolled_back with
        | _ :: _ -> (
            r.Sim.agreed
            &&
            match r.Sim.pre_change with
            | None -> false
            | Some pre -> reverted_exactly ~pre ~final:r.Sim.final)
        | [] -> r.Sim.agreed && r.Sim.converged
      in
      {
        i_seed = seed;
        i_class = klass;
        i_converged = r.Sim.converged;
        i_agreed = r.Sim.agreed;
        i_repairs = r.Sim.repairs;
        i_cone = List.length r.Sim.rolled_back;
        i_ok;
      })
    (List.init runs Fun.id)

let pp_inject_check ppf c =
  Fmt.pf ppf "seed=%d class=%s converged=%b agreed=%b repairs=%d cone=%d ok=%b"
    c.i_seed c.i_class c.i_converged c.i_agreed c.i_repairs c.i_cone c.i_ok

let pp_check ppf c =
  Fmt.pf ppf
    "seed=%d profile=%s converged=%b agreed_match=%b final_match=%b ticks=%d \
     sent=%d dropped=%d retries=%d"
    c.seed c.profile c.converged c.agreed_match c.final_match c.ticks c.sent
    c.dropped c.retries

let pp_summary ppf s =
  Fmt.pf ppf
    "%d runs, %d failures; max convergence %d ticks; %d sent / %d dropped / \
     %d retried"
    s.runs
    (List.length s.failures)
    s.max_ticks_seen s.total_sent s.total_dropped s.total_retries;
  List.iter (fun c -> Fmt.pf ppf "@.  FAIL %a" pp_check c) s.failures
