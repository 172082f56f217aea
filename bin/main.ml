(* The chorev command-line tool.

     chorev demo          — walk the paper's scenarios (§5.1–5.3)
     chorev check         — bilateral/choreography consistency of the
                            procurement example (or a scale family)
     chorev experiments   — print the per-figure reproduction report
     chorev dot           — export the paper's automata as Graphviz
     chorev xml           — emit the scenario processes as BPEL XML
     chorev run           — execute the choreography operationally *)

module C = Chorev
module P = C.Scenario.Procurement
open Cmdliner

let gen = C.Public_gen.public

(* --------------------------- observability -------------------------- *)

(* Every subcommand takes [--trace[=FILE]], [--metrics], [--profile]
   and [--jobs]. The setup runs as the first term argument, so it is
   evaluated (and the ambient sink installed) before the command body —
   the same idiom cmdliner uses for log-level setup. *)

let obs_setup trace metrics profile jobs =
  (match jobs with
  | Some n -> C.Parallel.Pool.set_default_size n
  | None -> ());
  if metrics || profile then C.Obs.Metrics.enabled := true;
  let trace_sink =
    match trace with
    | None -> None
    | Some "-" -> Some (C.Obs.Sink.pretty Fmt.stderr)
    | Some file ->
        let oc = open_out file in
        at_exit (fun () -> close_out_noerr oc);
        Some (C.Obs.Sink.jsonl oc)
  in
  let prof =
    if profile then begin
      let p = C.Obs.Profile.create () in
      Some (p, C.Obs.Profile.sink p)
    end
    else None
  in
  (match (trace_sink, prof) with
  | None, None -> ()
  | Some s, None -> C.Obs.set_sink s
  | None, Some (_, ps) -> C.Obs.set_sink ps
  | Some s, Some (_, ps) -> C.Obs.set_sink (C.Obs.Sink.tee s ps));
  at_exit (fun () ->
      (C.Obs.current_sink ()).C.Obs.Sink.flush ();
      (match prof with
      | Some (p, _) -> Fmt.epr "@.%a@." C.Obs.Profile.pp p
      | None -> ());
      if metrics || profile then Fmt.epr "@.%a@." C.Obs.Metrics.pp ())

let obs_term =
  let trace_arg =
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Emit one trace span per pipeline step: pretty-printed to \
             stderr, or as JSON lines to $(docv) when a file is given.")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Collect and print the counter/histogram table on exit.")
  in
  let profile_arg =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Print a per-phase wall-clock table (plus the counter table) \
             on exit.")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Size of the domain pool used for per-pair consistency checks \
             and per-partner propagation (default 1, i.e. sequential; the \
             $(b,CHOREV_DOMAINS) environment variable sets the same \
             default). Results are identical for every value.")
  in
  Term.(const obs_setup $ trace_arg $ metrics_arg $ profile_arg $ jobs_arg)

(* ----------------------------- budgets ------------------------------ *)

(* [--op-fuel]/[--op-timeout]/[--round-fuel]/[--round-timeout] build a
   config updater applied to [Config.default]. *)
let budget_term =
  let op_fuel =
    Arg.(
      value
      & opt (some int) None
      & info [ "op-fuel" ] ~docv:"N"
          ~doc:
            "Fuel budget per algebra step (worklist iterations); a step \
             that runs out degrades per policy instead of completing \
             (DESIGN.md §9). Deterministic across $(b,--jobs) values.")
  in
  let op_timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "op-timeout" ] ~docv:"SECONDS"
          ~doc:"Wall-clock deadline per algebra step (not deterministic).")
  in
  let round_fuel =
    Arg.(
      value
      & opt (some int) None
      & info [ "round-fuel" ] ~docv:"N"
          ~doc:
            "Fuel budget for one whole partner pipeline; op budgets draw \
             from its remainder.")
  in
  let round_timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "round-timeout" ] ~docv:"SECONDS"
          ~doc:"Wall-clock deadline for one whole partner pipeline.")
  in
  let repair_flag =
    Arg.(
      value & flag
      & info [ "repair" ]
          ~doc:
            "Self-healing evolution: when a partner cannot be adapted and \
             its bilateral check fails, search for a small amendment of \
             the partner's process (guided by the shortest \
             counterexample witness) that restores consistency, instead \
             of reporting failure (DESIGN.md §14).")
  in
  let repair_fuel =
    Arg.(
      value
      & opt (some int) None
      & info [ "repair-fuel" ] ~docv:"N"
          ~doc:
            "Fuel budget for one amendment search (implies $(b,--repair)); \
             an exhausted search degrades to unrepairable. Deterministic \
             across $(b,--jobs) values.")
  in
  let make of_ ot rf rt rep rep_fuel (config : C.Config.t) =
    let config =
      {
        config with
        op_budget = { C.Guard.Budget.fuel = of_; timeout_s = ot };
        round_budget = { C.Guard.Budget.fuel = rf; timeout_s = rt };
      }
    in
    if rep || rep_fuel <> None then C.Config.with_repair ?fuel:rep_fuel config
    else config
  in
  Term.(
    const make $ op_fuel $ op_timeout $ round_fuel $ round_timeout
    $ repair_flag $ repair_fuel)

(* ---------------------------- validation ---------------------------- *)

(* Pre-flight [Model.validate] before pipeline work: warnings go to
   stderr, errors are fatal (exit 2). *)
let validate_or_fail t =
  match C.Choreography.Model.validate t with
  | Ok () -> true
  | Error issues ->
      let fatal = ref false in
      List.iter
        (fun i ->
          match C.Choreography.Model.issue_severity i with
          | `Error ->
              fatal := true;
              Fmt.epr "error: %a@." C.Choreography.Model.pp_issue i
          | `Warning -> Fmt.epr "warning: %a@." C.Choreography.Model.pp_issue i)
        issues;
      not !fatal

(* ------------------------------- demo ------------------------------ *)

let demo () scenario =
  let t = C.Choreography.Model.of_processes (List.map snd P.parties) in
  if not (validate_or_fail t) then 2
  else begin
  let evolve changed =
    match C.Choreography.Evolution.run t ~owner:"A" ~changed with
    | Ok rep -> Fmt.pr "%a@." C.Choreography.Evolution.pp_report rep
    | Error (`Unknown_party p) -> Fmt.epr "unknown party %s@." p
  in
  (match scenario with
  | `Invariant ->
      Fmt.pr "=== §5.1 Invariant additive change: order_2 format ===@.";
      evolve P.accounting_order2
  | `Cancel ->
      Fmt.pr "=== §5.2 Variant additive change: cancellation ===@.";
      evolve P.accounting_cancel
  | `Tracking ->
      Fmt.pr "=== §5.3 Variant subtractive change: tracking limit ===@.";
      evolve P.accounting_once
  | `All ->
      Fmt.pr "=== §5.1 Invariant additive change: order_2 format ===@.";
      evolve P.accounting_order2;
      Fmt.pr "@.=== §5.2 Variant additive change: cancellation ===@.";
      evolve P.accounting_cancel;
      Fmt.pr "@.=== §5.3 Variant subtractive change: tracking limit ===@.";
      evolve P.accounting_once);
  0
  end

let scenario_arg =
  let scenario_conv =
    Arg.enum
      [ ("all", `All); ("invariant", `Invariant); ("cancel", `Cancel);
        ("tracking", `Tracking) ]
  in
  Arg.(value & pos 0 scenario_conv `All & info [] ~docv:"SCENARIO")

let demo_cmd =
  Cmd.v
    (Cmd.info "demo" ~doc:"Walk the paper's evolution scenarios (Sec. 5)")
    Term.(const demo $ obs_term $ scenario_arg)

(* ------------------------------- check ----------------------------- *)

let check () () =
  let t = C.Choreography.Model.of_processes (List.map snd P.parties) in
  if not (validate_or_fail t) then 2
  else begin
  List.iter
    (fun v ->
      Fmt.pr "%a@." C.Choreography.Consistency.pp_verdict v;
      match v.C.Choreography.Consistency.witness with
      | Some w ->
          Fmt.pr "  conversation: %a@."
            (Fmt.list ~sep:(Fmt.any " → ") (fun ppf l ->
                 Fmt.string ppf (C.Label.to_string l)))
            w
      | None -> ())
    (C.Choreography.Consistency.check_all t);
  if C.Choreography.Consistency.consistent t then 0 else 1
  end

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:"Check all bilateral consistencies of the procurement example")
    Term.(const check $ obs_term $ const ())

(* ---------------------------- experiments --------------------------- *)

let experiments () () = if C.Scenario.Report.print_all () then 0 else 1

let experiments_cmd =
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Reproduce every figure/table of the paper and report the outcome")
    Term.(const experiments $ obs_term $ const ())

(* -------------------------------- dot ------------------------------ *)

let dot () dir =
  let automata =
    [
      ("fig5_party_a", C.Scenario.Fig5.party_a);
      ("fig5_party_b", C.Scenario.Fig5.party_b);
      ("fig5_intersection", C.Scenario.Fig5.intersection ());
      ("fig6_buyer_public", gen P.buyer_process);
      ("fig7_accounting_public", gen P.accounting_process);
      ("fig8a_buyer_view", C.View.tau ~observer:"B" (gen P.accounting_process));
      ("fig8b_logistics_view", C.View.tau ~observer:"L" (gen P.accounting_process));
      ("fig10a_order2_view", C.View.tau ~observer:"B" (gen P.accounting_order2));
      ("fig12a_cancel_view", C.View.tau ~observer:"B" (gen P.accounting_cancel));
      ( "fig13a_difference",
        C.Minimize.minimize
          (C.Ops.difference
             (C.View.tau ~observer:"B" (gen P.accounting_cancel))
             (gen P.buyer_process)) );
      ( "fig13b_new_buyer_public",
        C.Minimize.minimize
          (C.Ops.union
             (C.Ops.difference
                (C.View.tau ~observer:"B" (gen P.accounting_cancel))
                (gen P.buyer_process))
             (gen P.buyer_process)) );
      ("fig14_buyer_public", gen P.buyer_with_cancel);
      ("fig16a_once_view", C.View.tau ~observer:"B" (gen P.accounting_once));
      ("fig18_buyer_once_public", gen P.buyer_once);
    ]
  in
  C.Wal.Dir.mkdir_p dir;
  List.iter
    (fun (name, a) ->
      let path = Filename.concat dir (name ^ ".dot") in
      C.Dot.to_file ~name ~path a;
      Fmt.pr "wrote %s@." path)
    automata;
  0

let dir_arg =
  Arg.(value & opt string "dot" & info [ "o"; "out" ] ~docv:"DIR"
       ~doc:"Output directory for .dot files")

let dot_cmd =
  Cmd.v
    (Cmd.info "dot" ~doc:"Export the paper's automata as Graphviz files")
    Term.(const dot $ obs_term $ dir_arg)

(* -------------------------------- xml ------------------------------ *)

let xml () () =
  List.iter
    (fun p ->
      Fmt.pr "<!-- %s -->@.%s@." (C.Bpel.Process.name p) (C.Bpel.Pp.to_xml p))
    [ P.buyer_process; P.accounting_process; P.logistics_process ];
  0

let xml_cmd =
  Cmd.v
    (Cmd.info "xml" ~doc:"Emit the scenario private processes as BPEL XML")
    Term.(const xml $ obs_term $ const ())

(* -------------------------------- run ------------------------------ *)

let run () seed =
  let sys =
    C.Runtime.Exec.make
      (List.map (fun (p, proc) -> (p, gen proc)) P.parties)
  in
  let r = C.Runtime.Exec.random_run ~seed sys in
  List.iter (fun l -> Fmt.pr "%s@." (C.Label.to_string l)) r.C.Runtime.Exec.trace;
  Fmt.pr "outcome: %s@."
    (match r.C.Runtime.Exec.outcome with
    | C.Runtime.Exec.Completed -> "completed"
    | C.Runtime.Exec.Deadlock -> "deadlock"
    | C.Runtime.Exec.Running -> "step budget exhausted");
  let e = C.Runtime.Exec.explore sys in
  Fmt.pr "state space: %d configurations, %d deadlocks, completions %d@."
    e.C.Runtime.Exec.configurations
    (List.length e.C.Runtime.Exec.deadlocks)
    e.C.Runtime.Exec.completions;
  0

let seed_arg =
  Arg.(value & opt int 2026 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed")

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Execute the procurement choreography operationally")
    Term.(const run $ obs_term $ seed_arg)

(* -------------------------------- sim ------------------------------ *)

let sim_scenario = function
  | `Invariant -> P.accounting_order2
  | `Cancel -> P.accounting_cancel
  | `Tracking -> P.accounting_once

(* The common tail of a healed (or reverted) run, printed identically
   by the live path and by [chorev resume] after a kill-during-rollback
   — the byte-identity contract of the repair journal. *)
let print_heal_tail m =
  Fmt.pr "agreed: %b@." (C.Choreography.Consistency.consistent m);
  Fmt.pr "digest: %s@." (Digest.to_hex (C.Choreography.Model.fingerprint m))

(* [chorev sim --inject-bad-changes]: a seeded rogue change instead of
   a Sec. 5 scenario change. Soak mode checks the never-half-applied
   invariant over many seeds; single-run mode can journal the rollback
   and simulate a crash in the middle of it. *)
let sim_inject t ~profile ~seed ~soak ~inject_at ~adapt ~rollback_journal
    ~crash_during_rollback max_ticks =
  match soak with
  | Some runs ->
      let checks =
        C.Sim.Soak.run_inject ~runs ~inject_at ~profile t ~owner:"A"
      in
      let failures =
        List.filter (fun c -> not (C.Sim.Soak.inject_ok c)) checks
      in
      let repaired =
        List.length
          (List.filter
             (fun c -> c.C.Sim.Soak.i_repairs > 0 && c.C.Sim.Soak.i_cone = 0)
             checks)
      in
      let rolled =
        List.length (List.filter (fun c -> c.C.Sim.Soak.i_cone > 0) checks)
      in
      Fmt.pr "%d injected runs: %d repaired, %d rolled back, %d failures@."
        (List.length checks) repaired rolled (List.length failures);
      List.iter
        (fun c -> Fmt.pr "  FAIL %a@." C.Sim.Soak.pp_inject_check c)
        failures;
      if failures = [] then 0 else 1
  | None -> (
      if crash_during_rollback <> None && rollback_journal = None then begin
        Fmt.epr "--crash-during-rollback requires --rollback-journal@.";
        2
      end
      else
        let profile = C.Sim.Fault.with_inject ~at:inject_at ~seed profile in
        let changed = C.Choreography.Model.private_ t "A" in
        match
          C.Sim.run ~adapt ~profile ~seed ?max_ticks ~trace:false
            ~rollback:true ?rollback_journal
            ?crash_during_rollback:crash_during_rollback t ~owner:"A" ~changed
        with
        | exception C.Wal.Run.Simulated_crash k ->
            Fmt.epr "simulated crash after %d rollback restore(s)@." k;
            3
        | exception Invalid_argument e ->
            Fmt.epr "%s@." e;
            2
        | r ->
            Fmt.epr "profile: %a@." C.Sim.Fault.pp profile;
            Fmt.epr "%a@." C.Sim.pp_stats r.C.Sim.stats;
            (match (r.C.Sim.injected_at, r.C.Sim.rolled_back) with
            | Some at, (_ :: _ as cone) ->
                Fmt.pr "%s" (C.Sim.rollback_prelude ~injected_at:at ~cone);
                print_heal_tail r.C.Sim.final
            | Some _, [] ->
                Fmt.pr "repaired: %d amendment(s)@." r.C.Sim.repairs;
                print_heal_tail r.C.Sim.final
            | None, _ -> Fmt.pr "injection skipped (no insertion point)@.");
            if r.C.Sim.agreed then 0 else 1)

let sim () scenario fault party seed soak record max_ticks inject inject_at
    no_adapt rollback_journal crash_during_rollback =
  let t = C.Choreography.Model.of_processes (List.map snd P.parties) in
  if not (validate_or_fail t) then 2
  else
  let changed = sim_scenario scenario in
  match C.Sim.Fault.of_name ~party fault with
  | Error e ->
      Fmt.epr "%s@." e;
      2
  | Ok profile when inject ->
      sim_inject t ~profile ~seed ~soak ~inject_at ~adapt:(not no_adapt)
        ~rollback_journal ~crash_during_rollback max_ticks
  | Ok profile -> (
      match soak with
      | Some seeds ->
          let checks =
            C.Sim.Soak.run
              ~seeds:(List.init seeds Fun.id)
              ?max_ticks t ~owner:"A" ~changed
          in
          let s = C.Sim.Soak.summarize checks in
          Fmt.pr "%a@." C.Sim.Soak.pp_summary s;
          if C.Sim.Soak.all_ok checks then 0 else 1
      | None ->
          let r =
            C.Sim.run ~profile ~seed ?max_ticks ~trace:(record <> None) t
              ~owner:"A" ~changed
          in
          let oracle = C.Choreography.Protocol.run t ~owner:"A" ~changed in
          (match record with
          | Some file ->
              Out_channel.with_open_text file (fun oc ->
                  Out_channel.output_string oc r.C.Sim.trace);
              Fmt.pr "wrote %s@." file
          | None -> ());
          Fmt.pr "profile: %a@." C.Sim.Fault.pp profile;
          Fmt.pr "%a@." C.Sim.pp_stats r.C.Sim.stats;
          Fmt.pr "converged: %b  agreed: %b (oracle: %b)  final matches \
                  oracle: %b@."
            r.C.Sim.converged r.C.Sim.agreed oracle.C.Choreography.Protocol.agreed
            (C.Sim.Soak.models_match r.C.Sim.final
               oracle.C.Choreography.Protocol.final);
          if
            r.C.Sim.converged
            && r.C.Sim.agreed = oracle.C.Choreography.Protocol.agreed
            && C.Sim.Soak.models_match r.C.Sim.final
                 oracle.C.Choreography.Protocol.final
          then 0
          else 1)

let scenario_sim_arg =
  let scenario_conv =
    Arg.enum
      [ ("invariant", `Invariant); ("cancel", `Cancel); ("tracking", `Tracking) ]
  in
  Arg.(
    value & pos 0 scenario_conv `Cancel
    & info [] ~docv:"SCENARIO"
        ~doc:
          "Which Sec. 5 change party A announces: $(b,invariant), \
           $(b,cancel) (default) or $(b,tracking).")

let sim_cmd =
  let fault_arg =
    Arg.(
      value
      & opt string "chaos"
      & info [ "fault" ] ~docv:"PROFILE"
          ~doc:
            (Printf.sprintf
               "Fault profile for the simulated transport; one of %s."
               (String.concat ", " C.Sim.Fault.names)))
  in
  let party_arg =
    Arg.(
      value & opt string "B"
      & info [ "party" ] ~docv:"PARTY"
          ~doc:
            "Party isolated/crashed by the $(b,partitioned) and \
             $(b,crashy) profiles.")
  in
  let soak_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "soak" ] ~docv:"N"
          ~doc:
            "Soak mode: run seeds 0..N-1 across the stock \
             lossy/jittery/chaos profiles (fanned over the domain pool, \
             see $(b,--jobs)) and check every run against the \
             synchronous oracle. Exit 1 on any mismatch.")
  in
  let record_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "record" ] ~docv:"FILE"
          ~doc:
            "Write the run's deterministic JSONL event trace to $(docv) \
             — rerunning with the same seed and profile reproduces it \
             byte for byte.")
  in
  let max_ticks_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-ticks" ] ~docv:"T"
          ~doc:"Abort (converged: false) after virtual time $(docv).")
  in
  let inject_arg =
    Arg.(
      value & flag
      & info [ "inject-bad-changes" ]
          ~doc:
            "Instead of a Sec. 5 scenario change, have party A apply a \
             seeded rogue change mid-run (a message type no partner \
             knows) with rollback armed: the run must end repaired or \
             causally reverted, never half-applied. With $(b,--soak N) \
             this invariant is checked over N seeds (cycling \
             no-adapt/repair/fuel-starved classes).")
  in
  let inject_at_arg =
    Arg.(
      value & opt int 10
      & info [ "inject-at" ] ~docv:"T"
          ~doc:"Virtual tick of the bad-change injection (default 10).")
  in
  let no_adapt_arg =
    Arg.(
      value & flag
      & info [ "no-adapt" ]
          ~doc:
            "Partners nack without adapting — with \
             $(b,--inject-bad-changes) this forces the rollback exit.")
  in
  let rollback_journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "rollback-journal" ] ~docv:"DIR"
          ~doc:
            "Journal the causal rollback into $(docv) (a plan holding the \
             snapshots, then one fsynced record per restored party), so \
             a kill in the middle finishes with $(b,chorev resume) \
             $(docv) — with stdout byte-identical to the uninterrupted \
             run. Refused if $(docv) already holds a run.")
  in
  let crash_during_rollback_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "crash-during-rollback" ] ~docv:"K"
          ~doc:
            "Test hook: abort (exit 3) right after committing the \
             $(docv)-th restore to the rollback journal (0: the plan \
             alone).")
  in
  Cmd.v
    (Cmd.info "sim"
       ~doc:
         "Simulate the decentralized evolution protocol (Sec. 6) over a \
          faulty network: seeded discrete-event execution with message \
          loss, duplication, delay, partitions and crashes, checked \
          against the synchronous oracle")
    Term.(
      const sim $ obs_term $ scenario_sim_arg $ fault_arg $ party_arg
      $ seed_arg $ soak_arg $ record_arg $ max_ticks_arg $ inject_arg
      $ inject_at_arg $ no_adapt_arg $ rollback_journal_arg
      $ crash_during_rollback_arg)

(* ------------------------------- global ---------------------------- *)

let global () () =
  let t = C.Choreography.Model.of_processes (List.map snd P.parties) in
  if not (validate_or_fail t) then 2
  else begin
  Fmt.pr "=== original choreography ===@.%a@.@."
    C.Choreography.Global.pp_diagnosis
    (C.Choreography.Global.diagnose t);
  match
    C.Choreography.Evolution.run t ~owner:"A" ~changed:P.accounting_cancel
  with
  | Error (`Unknown_party p) ->
      Fmt.epr "unknown party %s@." p;
      1
  | Ok rep ->
      Fmt.pr
        "=== after the §5.2 cancel change (propagated, all pairs consistent) \
         ===@.%a@."
        C.Choreography.Global.pp_diagnosis
        (C.Choreography.Global.diagnose
           rep.C.Choreography.Evolution.choreography);
      0
  end

let global_cmd =
  Cmd.v
    (Cmd.info "global"
       ~doc:
         "Global (multi-lateral) diagnosis: conversation automaton, global \
          consistency, deadlock traces")
    Term.(const global $ obs_term $ const ())

(* ----------------------------- synthesize -------------------------- *)

let synth () party =
  let pub = gen P.accounting_process in
  let view = C.View.tau ~observer:party pub in
  match C.Skeleton.synthesize ~name:(party ^ "-stub") ~party view with
  | Ok p ->
      Fmt.pr "%s@." (C.Bpel.Pp.to_string p);
      Fmt.pr
        "(consistent with the accounting public process: %b)@."
        (C.Consistency.consistent (gen p) view);
      0
  | Error e ->
      Fmt.epr "synthesis failed: %s@." e;
      1

let party_arg =
  Arg.(value & pos 0 string "B" & info [] ~docv:"PARTY"
       ~doc:"Party to synthesize a stub for (its view of the accounting \
             process is used)")

let synth_cmd =
  Cmd.v
    (Cmd.info "synth"
       ~doc:"Synthesize a private-process template from a public process")
    Term.(const synth $ obs_term $ party_arg)

(* ------------------------------ evolve ----------------------------- *)

let print_evolve_outcome (o : C.Journal.Evolve.outcome) =
  Fmt.pr "%a@." C.Journal.Evolve.pp_outcome o;
  if o.report.C.Choreography.Evolution.consistent then 0 else 1

let evolve_run () scenario journal crash_after budgets =
  let t = C.Choreography.Model.of_processes (List.map snd P.parties) in
  if not (validate_or_fail t) then 2
  else
    let config = budgets C.Config.default in
    let changed = sim_scenario scenario in
    match journal with
    | None ->
        if crash_after <> None then begin
          Fmt.epr "--crash-after requires --journal@.";
          2
        end
        else (
          match
            C.Choreography.Evolution.run ~config
              ~cache:(C.Choreography.Evolution.Cache.create ())
              t ~owner:"A" ~changed
          with
          | Ok rep ->
              Fmt.pr "%a@." C.Choreography.Evolution.pp_report rep;
              if rep.C.Choreography.Evolution.consistent then 0 else 1
          | Error (`Unknown_party p) ->
              Fmt.epr "unknown party %s@." p;
              2)
    | Some dir -> (
        match
          match C.Wal.Dir.validate_root (Filename.dirname dir) with
          | Error e -> Error e
          | Ok () ->
              C.Journal.Evolve.run ~config
                ~cache:(C.Choreography.Evolution.Cache.create ())
                ?crash_after ~dir t ~owner:"A" ~changed
        with
        | Ok o -> print_evolve_outcome o
        | Error e ->
            Fmt.epr "%s@." e;
            2
        | exception C.Wal.Run.Simulated_crash k ->
            Fmt.epr "simulated crash after round %d@." k;
            3)

let evolve_cmd =
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"DIR"
          ~doc:
            "Journal the run into $(docv): its plan (the choreography \
             and the change) in plan.json, then one checksummed record \
             per round in journal.jsonl, so a killed run finishes with \
             $(b,chorev resume) $(docv) — with output byte-identical to \
             the uninterrupted run.")
  in
  let crash_after_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "crash-after" ] ~docv:"K"
          ~doc:
            "Test hook: abort (exit 3) once the journal holds $(docv) \
             records (0: the plan alone; record $(docv) is round $(docv), \
             the last one seals the run), as a hard kill at that point \
             would.")
  in
  Cmd.v
    (Cmd.info "evolve"
       ~doc:
         "Evolve the procurement choreography through a Sec. 5 change, \
          optionally journaled ($(b,--journal)) for crash-safe resume and \
          bounded by fuel/deadline budgets ($(b,--op-fuel), ...)")
    Term.(
      const evolve_run $ obs_term $ scenario_sim_arg $ journal_arg
      $ crash_after_arg $ budget_term)

(* ------------------------------ resume ----------------------------- *)

(* [chorev resume] dispatches on the run's recorded kind. *)
let resume_run () dir budgets =
  let fail e =
    Fmt.epr "%s@." e;
    2
  in
  match C.Wal.Run.kind ~dir with
  | Error e -> fail e
  | Ok "rollback" -> (
      (* An interrupted causal rollback: finish the missing restores,
         rebuild the final model and print exactly what the
         uninterrupted run printed. *)
      let module R = C.Repair.Rollback in
      match R.resume ~dir ~restore:(fun ~party:_ ~pre:_ -> ()) () with
      | Error e -> fail e
      | Ok l -> (
          Fmt.epr "resumed rollback of %d part(ies) from %s@."
            (List.length l.R.plan.R.cone) dir;
          let parse (party, sexp) =
            match C.Bpel.Sexp.process_of_string sexp with
            | Ok p -> p
            | Error e -> failwith (party ^ ": " ^ e)
          in
          match
            C.Choreography.Model.of_processes (List.map parse (R.final_state l.R.plan))
          with
          | exception (Failure e | Invalid_argument e) ->
              fail ("corrupt rollback snapshot: " ^ e)
          | m ->
              print_string l.R.plan.R.prelude;
              print_heal_tail m;
              0))
  | Ok "migrate" -> (
      match C.Migrate.Engine.resume ~dir () with
      | Ok { C.Migrate.Engine.report; replayed } ->
          Fmt.epr "replayed %d batch(es) from %s@." replayed dir;
          Fmt.pr "%a@." C.Migrate.Engine.pp_report report;
          0
      | Error e -> fail e)
  | Ok "evolve" -> (
      let config = budgets C.Config.default in
      let cache = C.Choreography.Evolution.Cache.create () in
      match C.Journal.Evolve.resume ~config ~cache ~dir () with
      | Ok o ->
          Fmt.epr "replayed %d round(s) from %s@." o.C.Journal.Evolve.replayed dir;
          print_evolve_outcome o
      | Error e -> fail e)
  | Ok kind ->
      fail (Printf.sprintf "%s holds a %s run; chorev resume cannot finish it" dir kind)

let resume_cmd =
  Cmd.v
    (Cmd.info "resume"
       ~doc:
         "Finish a journaled $(b,chorev evolve), $(b,chorev migrate) or \
          $(b,chorev sim --rollback-journal) run, as named by the kind \
          in $(i,DIR)/plan.json: replay the committed rounds, batches or \
          restores from the journal, run the rest live, and print the \
          same output the uninterrupted run would have printed (the \
          replay note goes to stderr)")
    Term.(
      const resume_run $ obs_term
      $ Arg.(
          required
          & pos 0 (some string) None
          & info [] ~docv:"DIR" ~doc:"Run directory")
      $ budget_term)

(* ------------------------------ migrate ---------------------------- *)

(* chorev migrate — push a large seeded instance population through a
   schema change in budgeted batches (DESIGN.md §13). Stdout carries
   only the deterministic report; timing goes to stderr. *)

let migrate_plan scenario ~instances ~seed ~max_len ~batch ~batch_fuel ~memo =
  let pop version count seed prefix =
    { C.Migrate.Population.version; count; seed; max_len; prefix }
  in
  let publics, target, pops =
    match scenario with
    | `Cancel ->
        (* v1 = the Fig. 6 buyer public; target adds the cancel branch
           (Fig. 14) — every trace replays, the whole population
           migrates. *)
        ( [ gen P.buyer_process ],
          gen P.buyer_with_cancel,
          [ pop 1 instances seed "i-" ] )
    | `Tracking ->
        (* Two live versions (plain and with-cancel), migrating onto
           the restricted buyer_once public — a mixed population of
           migratable / finish-on-old instances. *)
        let half = instances / 2 in
        ( [ gen P.buyer_process; gen P.buyer_with_cancel ],
          gen P.buyer_once,
          [ pop 1 half seed "a-"; pop 2 (instances - half) (seed + 1_000_000) "b-" ] )
  in
  {
    C.Migrate.Engine.publics;
    target;
    pops;
    batch_size = batch;
    batch_fuel;
    memo_capacity = memo;
  }

let migrate_run () scenario instances batch seed max_len batch_fuel memo
    journal crash_after =
  let plan =
    migrate_plan scenario ~instances ~seed ~max_len ~batch ~batch_fuel ~memo
  in
  let t0 = Unix.gettimeofday () in
  let finish (rep : C.Migrate.Engine.report) =
    let dt = Unix.gettimeofday () -. t0 in
    Fmt.pr "%a@." C.Migrate.Engine.pp_report rep;
    Fmt.epr "%d instances in %.2fs (%.0f instances/s)@." rep.total dt
      (float_of_int rep.total /. Float.max dt 1e-9);
    0
  in
  match (journal, C.Migrate.Engine.check_plan plan) with
  | _, Error e ->
      Fmt.epr "%s@." e;
      2
  | None, Ok () ->
      if crash_after <> None then begin
        Fmt.epr "--crash-after requires --journal@.";
        2
      end
      else
        let vs = C.Migrate.Engine.build_plan plan in
        let rep =
          C.Migrate.Engine.run
            ~options:(C.Migrate.Engine.options_of_plan plan)
            vs plan.C.Migrate.Engine.target
        in
        finish rep
  | Some dir, Ok () -> (
      match C.Wal.Dir.validate_root (Filename.dirname dir) with
      | Error e ->
          Fmt.epr "%s@." e;
          2
      | Ok () -> (
          match C.Migrate.Engine.run_journaled ?crash_after ~dir plan with
          | Ok rep -> finish rep
          | Error e ->
              Fmt.epr "%s@." e;
              2
          | exception C.Wal.Run.Simulated_crash k ->
              Fmt.epr "simulated crash after batch %d@." k;
              3))

let migrate_cmd =
  let scenario_arg =
    let scen_conv =
      Arg.enum [ ("tracking", `Tracking); ("cancel", `Cancel) ]
    in
    Arg.(
      value & pos 0 scen_conv `Tracking
      & info [] ~docv:"SCENARIO"
          ~doc:
            "$(b,tracking) (two live versions onto the restricted \
             buyer_once public — mixed verdicts) or $(b,cancel) (one \
             version onto the with-cancel public — everything migrates)")
  in
  let instances_arg =
    Arg.(
      value & opt int 100_000
      & info [ "instances" ] ~docv:"N" ~doc:"Population size")
  in
  let batch_arg =
    Arg.(
      value & opt int 1024
      & info [ "batch" ] ~docv:"N" ~doc:"Instances per batch")
  in
  let seed_arg =
    Arg.(
      value & opt int 17
      & info [ "seed" ] ~docv:"SEED" ~doc:"Population sampling seed")
  in
  let max_len_arg =
    Arg.(
      value & opt int 12
      & info [ "max-len" ] ~docv:"N" ~doc:"Maximum sampled trace length")
  in
  let batch_fuel_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "batch-fuel" ] ~docv:"FUEL"
          ~doc:
            "Fuel bound per fresh verdict and per batch total; a batch \
             that trips it is deferred whole (left in place), never \
             half-migrated")
  in
  let memo_arg =
    Arg.(
      value & opt int 65_536
      & info [ "memo-capacity" ] ~docv:"N"
          ~doc:"Verdict memo (LRU) capacity")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"DIR"
          ~doc:
            "Journal the migration into $(docv): the plan in plan.json, \
             then one checksummed record per batch in journal.jsonl, so \
             a killed run finishes with $(b,chorev resume) $(docv) — \
             with output byte-identical to the uninterrupted run")
  in
  let crash_after_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "crash-after" ] ~docv:"K"
          ~doc:
            "Test hook: abort (exit 3) once the journal holds $(docv) \
             records (0: the plan alone; record $(docv) is batch \
             $(docv), the last one seals the run), as a hard kill at \
             that point would")
  in
  Cmd.v
    (Cmd.info "migrate"
       ~doc:
         "Migrate a large seeded instance population through a schema \
          change in budgeted batches: compliance verdicts fan out over \
          the domain pool, repeated traces hit a verdict memo, \
          over-budget batches defer whole, and $(b,--journal) makes the \
          run crash-safe ($(b,chorev resume))")
    Term.(
      const migrate_run $ obs_term $ scenario_arg $ instances_arg $ batch_arg
      $ seed_arg $ max_len_arg $ batch_fuel_arg $ memo_arg $ journal_arg
      $ crash_after_arg)

(* ------------------------- file-based commands --------------------- *)

let read_file path = In_channel.with_open_text path In_channel.input_all

let load_process path =
  match C.Bpel.Sexp.process_of_string (read_file path) with
  | Ok p -> Ok p
  | Error e -> Error (Printf.sprintf "%s: %s" path e)

(* chorev public FILE — derive and print the public process + table *)
let public_cmd_run () path dot_out =
  match load_process path with
  | Error e ->
      Fmt.epr "%s@." e;
      1
  | Ok p ->
      let pub, table = C.Public_gen.generate p in
      Fmt.pr "%s@." (C.Afsa.Pp.to_string ~abbrev:true pub);
      Fmt.pr "mapping table:@.%s@." (C.Table.to_string table);
      (match dot_out with
      | Some out ->
          C.Dot.to_file ~name:(C.Bpel.Process.name p) ~path:out pub;
          Fmt.pr "wrote %s@." out
      | None -> ());
      0

let file_arg n doc = Arg.(required & pos n (some file) None & info [] ~docv:"FILE" ~doc)

let dot_out_arg =
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"OUT"
       ~doc:"Also write the automaton as Graphviz")

let public_cmd =
  Cmd.v
    (Cmd.info "public"
       ~doc:
         "Derive the public process (and mapping table) of a private \
          process stored as an s-expression")
    Term.(const public_cmd_run $ obs_term $ file_arg 0 "private process (.sexp)" $ dot_out_arg)

(* chorev consistent FILE1 FILE2 — bilateral consistency of two private
   processes *)
let consistent_cmd_run () p1 p2 =
  match (load_process p1, load_process p2) with
  | Error e, _ | _, Error e ->
      Fmt.epr "%s@." e;
      2
  | Ok a, Ok b ->
      let pa = C.Public_gen.public a and pb = C.Public_gen.public b in
      let va = C.View.tau ~observer:(C.Bpel.Process.party b) pa in
      let vb = C.View.tau ~observer:(C.Bpel.Process.party a) pb in
      let r = C.Consistency.check va vb in
      Fmt.pr "%s ↔ %s: %s@." (C.Bpel.Process.name a) (C.Bpel.Process.name b)
        (if r.C.Consistency.consistent then "consistent" else "INCONSISTENT");
      (match r.C.Consistency.witness with
      | Some w ->
          Fmt.pr "conversation: %a@."
            (Fmt.list ~sep:(Fmt.any " → ") (fun ppf l ->
                 Fmt.string ppf (C.Label.to_string l)))
            w
      | None -> ());
      if r.C.Consistency.consistent then 0 else 1

let consistent_cmd =
  Cmd.v
    (Cmd.info "consistent"
       ~doc:
         "Check bilateral consistency of two private processes stored as \
          s-expressions (exit code 1 when inconsistent)")
    Term.(
      const consistent_cmd_run
      $ obs_term
      $ file_arg 0 "first private process (.sexp)"
      $ Arg.(
          required
          & pos 1 (some file) None
          & info [] ~docv:"FILE2" ~doc:"second private process (.sexp)"))

(* chorev save — write the scenario processes as .sexp files, so the
   file-based commands have inputs to start from *)
let save_cmd_run () dir =
  C.Wal.Dir.mkdir_p dir;
  List.iter
    (fun p ->
      let path = Filename.concat dir (C.Bpel.Process.name p ^ ".sexp") in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (C.Bpel.Sexp.process_to_string p));
      Fmt.pr "wrote %s@." path)
    [
      P.buyer_process; P.accounting_process; P.logistics_process;
      P.accounting_cancel; P.accounting_once; P.buyer_with_cancel;
      P.buyer_once;
    ];
  0

let save_cmd =
  Cmd.v
    (Cmd.info "save"
       ~doc:"Write the paper's scenario processes as .sexp files")
    Term.(
      const save_cmd_run
      $ obs_term
      $ Arg.(
          value & opt string "processes"
          & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Output directory"))

(* ------------------------------ serve ------------------------------ *)

(* chorev serve — the multi-tenant evolution service (DESIGN.md §11).
   Default is pipe mode: newline-delimited JSON requests on stdin, one
   response line each on stdout. --gen-script / --oracle / --replay are
   the deterministic workload tools behind the CI smoke diff and the
   scale_serve bench rows. *)
let serve_run () shards queue batch headroom journal_root mode tenants requests
    seed =
  let options =
    {
      C.Serve.Server.default_options with
      shards;
      queue_capacity = queue;
      batch;
      headroom;
      journal_root;
    }
  in
  match mode with
  | `Gen_script ->
      List.iter print_endline
        (C.Serve.Driver.gen_script ~tenants ~requests ~seed ());
      0
  | `Oracle ->
      let lines = In_channel.input_lines stdin in
      List.iter print_endline (C.Serve.Driver.oracle lines);
      0
  | `Replay file -> (
      let lines = In_channel.with_open_text file In_channel.input_lines in
      match C.Serve.Driver.replay ~options lines with
      | exception Invalid_argument e ->
          Fmt.epr "%s@." e;
          2
      | report ->
          Fmt.pr "%a@." C.Serve.Driver.pp_report report;
          if report.C.Serve.Driver.errors > 0 then 1 else 0)
  | `Pipe -> (
      (* an unusable or damaged journal root is one line and exit 2 *)
      match C.Serve.Server.create ~options () with
      | exception Invalid_argument e ->
          Fmt.epr "%s@." e;
          2
      | server ->
          (match C.Serve.Server.recovered server with
          | 0 -> ()
          | n -> Fmt.epr "recovered %d tenant(s) from %s@." n
                   (Option.value ~default:"" journal_root));
          let served = C.Serve.Server.run_pipe server stdin stdout in
          Fmt.epr "served %d request(s)@." served;
          0)

let serve_cmd =
  let shards_arg =
    Arg.(
      value & opt int C.Serve.Server.default_options.C.Serve.Server.shards
      & info [ "shards" ] ~docv:"N" ~doc:"Tenant-store hash shards")
  in
  let queue_arg =
    Arg.(
      value
      & opt int C.Serve.Server.default_options.C.Serve.Server.queue_capacity
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Admissions per scheduler cycle; requests past it are shed \
             with an $(i,overloaded) response")
  in
  let batch_arg =
    Arg.(
      value & opt int C.Serve.Server.default_options.C.Serve.Server.batch
      & info [ "batch" ] ~docv:"N" ~doc:"Requests read per scheduler cycle")
  in
  let headroom_arg =
    Arg.(
      value & opt (some int) None
      & info [ "headroom" ] ~docv:"N"
          ~doc:
            "Admission bound for deadline-bearing request classes \
             (default: the queue capacity — no early shedding)")
  in
  let journal_root_arg =
    Arg.(
      value & opt (some string) None
      & info [ "journal-root" ] ~docv:"DIR"
          ~doc:
            "Durable mode: one run directory per tenant under $(docv) \
             (the registration and its publishes), with one per \
             evolution inside it; a restarted server recovers every \
             tenant — including evolutions interrupted mid-run — \
             byte-identically, and exits 2 naming the file when a run \
             is damaged")
  in
  let mode_term =
    let gen_script =
      Arg.(
        value & flag
        & info [ "gen-script" ]
            ~doc:"Print a deterministic request script and exit")
    in
    let oracle =
      Arg.(
        value & flag
        & info [ "oracle" ]
            ~doc:
              "Read a script on stdin and print the expected response \
               lines (computed without the server) — the golden side of \
               the CI smoke diff")
    in
    let replay =
      Arg.(
        value & opt (some file) None
        & info [ "replay" ] ~docv:"SCRIPT"
            ~doc:"Push $(docv) through a fresh server and print the \
                  latency/shed report")
    in
    Term.(
      const (fun g o r ->
          match (g, o, r) with
          | true, _, _ -> `Gen_script
          | _, true, _ -> `Oracle
          | _, _, Some f -> `Replay f
          | _ -> `Pipe)
      $ gen_script $ oracle $ replay)
  in
  let tenants_arg =
    Arg.(
      value & opt int 16
      & info [ "tenants" ] ~docv:"N" ~doc:"Tenants in a generated script")
  in
  let requests_arg =
    Arg.(
      value & opt int 128
      & info [ "requests" ] ~docv:"N"
          ~doc:"Mixed requests in a generated script (after registration)")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED" ~doc:"Script generation seed")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve many evolving choreographies at once: newline-delimited \
          JSON requests (register/evolve/query/migrate-status/stats) on \
          stdin, one response per line on stdout, scheduled in cycles \
          over the domain pool with per-class budgets and deterministic \
          load shedding")
    Term.(
      const serve_run $ obs_term $ shards_arg $ queue_arg $ batch_arg
      $ headroom_arg $ journal_root_arg $ mode_term $ tenants_arg
      $ requests_arg $ seed_arg)

(* ------------------------------- main ------------------------------ *)

let () =
  let info =
    Cmd.info "chorev" ~version:"1.0.0"
      ~doc:
        "Controlled evolution of process choreographies (Rinderle, \
         Wombacher & Reichert, ICDE 2006)"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            demo_cmd; check_cmd; experiments_cmd; dot_cmd; xml_cmd; run_cmd;
            sim_cmd; global_cmd; synth_cmd; public_cmd; consistent_cmd;
            save_cmd; evolve_cmd; resume_cmd; migrate_cmd; serve_cmd;
          ]))
