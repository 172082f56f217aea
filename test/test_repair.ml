(* The self-healing repair loop (DESIGN.md §14): amendment search over
   counterexample witnesses — success / unrepairable / fuel-starved /
   deterministic — plus causal-cone computation, the rollback journal's
   crash-and-resume round trip, the synchronous protocol's withdrawal
   cascade, and pool-size invariance of the repair path through
   [Evolution.run]. *)

module C = Chorev
module A = C.Bpel.Activity
module M = C.Choreography.Model
module E = C.Propagate.Engine
module P = C.Scenario.Procurement
module Amend = C.Repair.Amend
module Rollback = C.Repair.Rollback

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* -------------------------- fixtures ------------------------------- *)

let model () = M.of_processes (List.map snd P.parties)

(* Insert a rogue invoke toward [partner] at position [pos] of the
   first sequence of [owner]'s private process — the same shape of bad
   change the simulator injects. *)
let rogue ?(op = "rogueT") ~partner ~pos p =
  let act = A.invoke ~partner ~op in
  let path, _ =
    A.all_nodes (C.Bpel.Process.body p)
    |> List.find (fun (_, a) ->
           match a with A.Sequence (_, _) -> true | _ -> false)
  in
  C.Change.Ops.apply_exn (C.Change.Ops.Insert_activity { path; pos; act }) p

(* The first rogue position that actually breaks whole-choreography
   consistency (tail appends can be benign under the annotated
   non-emptiness semantics — see lib/sim). *)
let breaking_change () =
  let t = model () in
  let a = M.private_ t P.accounting in
  let n =
    match
      A.all_nodes (C.Bpel.Process.body a)
      |> List.find_map (fun (_, act) ->
             match act with A.Sequence (_, items) -> Some (List.length items) | _ -> None)
    with
    | Some n -> n
    | None -> Alcotest.fail "accounting has no sequence"
  in
  let rec go pos =
    if pos > n then Alcotest.fail "no rogue position breaks consistency"
    else
      let a' = rogue ~partner:P.buyer ~pos a in
      if C.Choreography.Consistency.consistent (M.update t a') then go (pos + 1)
      else (t, a', pos)
  in
  go 0

(* Reproduce the node's failing bilateral check for (accounting',
   buyer): classify the framework on views, run the engine with
   adaptation off, hand its analysis to the amendment search. *)
let failed_check () =
  let t, a', _ = breaking_change () in
  let old_pub = M.public t P.accounting in
  let new_pub = C.Public_gen.public a' in
  let fw =
    C.Change.Classify.framework
      ~old_public:(C.View.tau ~observer:P.buyer old_pub)
      ~new_public:(C.View.tau ~observer:P.buyer new_pub)
      ()
  in
  let direction = E.direction_of_framework fw in
  let config = { C.Config.default with C.Config.auto_apply = false } in
  let outcome =
    E.run ~config ~direction ~a':new_pub
      ~partner_private:(M.private_ t P.buyer) ()
  in
  check_bool "engine left the pair inconsistent" false
    outcome.E.consistent_after;
  check_bool "engine did not adapt (auto_apply off)" true
    (outcome.E.adapted = None);
  (t, a', direction, outcome)

(* ------------------------- witness (Suggest) ----------------------- *)

let test_witness () =
  let _, _, _, outcome = failed_check () in
  let delta = outcome.E.analysis.E.delta in
  (match C.Propagate.Suggest.witness delta with
  | None -> Alcotest.fail "non-empty delta must yield a witness"
  | Some w ->
      check_bool "witness is non-empty" true (w <> []);
      check_bool "witness renders" true
        (String.length (C.Propagate.Suggest.witness_to_string w) > 0);
      check_bool "witness mentions the rogue op" true
        (List.exists
           (fun (l : C.Label.t) ->
             String.length l.C.Label.msg >= 5
             && String.sub l.C.Label.msg 0 5 = "rogue")
           w));
  (* language-empty delta: nothing to anchor on *)
  let empty = C.Afsa.make ~start:0 ~finals:[] ~edges:[] () in
  check_bool "empty delta has no witness" true
    (C.Propagate.Suggest.witness empty = None)

(* --------------------------- Amend.search -------------------------- *)

let budget_of c = Option.get c.C.Config.repair

let test_amend_success () =
  let t, a', direction, outcome = failed_check () in
  let budget = budget_of C.Config.(with_repair default) in
  let r =
    Amend.search ~budget ~direction
      ~partner_private:(M.private_ t P.buyer)
      ~view_new:outcome.E.analysis.E.view_new ~delta:outcome.E.analysis.E.delta
      ()
  in
  check_bool "witness extracted" true (r.Amend.witness <> None);
  check_bool "attempts counted" true (r.Amend.attempts > 0);
  check_bool "no degrade" true (r.Amend.degraded = []);
  match r.Amend.repaired with
  | None -> Alcotest.fail "amendment search must heal the rogue insert"
  | Some (buyer', _) ->
      check_bool "a winning candidate is named" true (r.Amend.chosen <> None);
      check_bool "repaired_process agrees" true
        (Amend.repaired_process r = Some buyer');
      (* the amended buyer restores whole-choreography consistency
         against the changed accounting *)
      let healed = M.update (M.update t a') buyer' in
      check_bool "amended model is consistent" true
        (C.Choreography.Consistency.consistent healed)

let test_amend_unrepairable () =
  let t, _, direction, outcome = failed_check () in
  let budget = budget_of C.Config.(with_repair default) in
  (* a language-empty delta: no counterexample to anchor candidates on *)
  let empty = C.Afsa.make ~start:0 ~finals:[] ~edges:[] () in
  let r =
    Amend.search ~budget ~direction
      ~partner_private:(M.private_ t P.buyer)
      ~view_new:outcome.E.analysis.E.view_new ~delta:empty ()
  in
  check_bool "no witness" true (r.Amend.witness = None);
  check_bool "unrepairable" true (r.Amend.repaired = None);
  check_int "no candidates verified" 0 r.Amend.attempts

let test_amend_starved () =
  let t, _, direction, outcome = failed_check () in
  let budget = budget_of C.Config.(with_repair ~fuel:5 default) in
  let r =
    Amend.search ~budget ~direction
      ~partner_private:(M.private_ t P.buyer)
      ~view_new:outcome.E.analysis.E.view_new ~delta:outcome.E.analysis.E.delta
      ()
  in
  check_bool "degrades instead of hanging" true (r.Amend.degraded <> []);
  check_bool "no repair under starvation" true (r.Amend.repaired = None);
  check_bool "fuel accounted" true (r.Amend.fuel_spent > 0)

let test_amend_deterministic () =
  let t, _, direction, outcome = failed_check () in
  let budget = budget_of C.Config.(with_repair default) in
  let search () =
    Amend.search ~budget ~direction
      ~partner_private:(M.private_ t P.buyer)
      ~view_new:outcome.E.analysis.E.view_new ~delta:outcome.E.analysis.E.delta
      ()
  in
  let r1 = search () and r2 = search () in
  check_int "same attempts" r1.Amend.attempts r2.Amend.attempts;
  check_int "same fuel" r1.Amend.fuel_spent r2.Amend.fuel_spent;
  check_bool "same winner" true (r1.Amend.chosen = r2.Amend.chosen);
  check_bool "same witness" true (r1.Amend.witness = r2.Amend.witness)

let test_candidates_queue () =
  let t, _, direction, outcome = failed_check () in
  let witness =
    match C.Propagate.Suggest.witness outcome.E.analysis.E.delta with
    | Some w -> w
    | None -> Alcotest.fail "no witness"
  in
  let cs = Amend.candidates ~direction (M.private_ t P.buyer) witness in
  check_bool "queue is non-empty" true (cs <> []);
  check_bool "bounded by max_candidates" true
    (List.length cs <= Amend.max_candidates);
  let costs = List.map (fun c -> c.Amend.cost) cs in
  check_bool "smallest edit first (cost monotone)" true
    (List.sort compare costs = costs);
  check_bool "costs are one or two edits" true
    (List.for_all (fun k -> k = 1 || k = 2) costs)

(* --------------------------- Rollback.cone ------------------------- *)

let edge at src dst = { Rollback.at; src; dst }

let test_cone () =
  (* chain: A touches B at t1, B touches C at t2 > t1 *)
  Alcotest.(check (list string))
    "chain" [ "A"; "B"; "C" ]
    (Rollback.cone ~origin:"A" ~edges:[ edge 1 "A" "B"; edge 2 "B" "C" ]);
  (* time order matters: B→C happened before B was contaminated *)
  Alcotest.(check (list string))
    "stale edge ignored" [ "A"; "B" ]
    (Rollback.cone ~origin:"A" ~edges:[ edge 1 "B" "C"; edge 2 "A" "B" ]);
  (* fan-out, discovery order after the origin *)
  Alcotest.(check (list string))
    "fan-out" [ "A"; "B"; "C" ]
    (Rollback.cone ~origin:"A"
       ~edges:[ edge 1 "A" "B"; edge 1 "A" "C"; edge 5 "D" "E" ]);
  (* unrelated traffic never joins the cone *)
  Alcotest.(check (list string))
    "origin only" [ "A" ]
    (Rollback.cone ~origin:"A" ~edges:[ edge 1 "B" "C"; edge 2 "C" "B" ])

(* ---------------------- rollback journal round trip ----------------- *)

let pre_snaps = [ ("B", "(pre B)"); ("C", "(pre C)") ]

let state_snaps =
  [ ("A", "(post A)"); ("B", "(post B)"); ("C", "(post C)") ]

let plan =
  {
    Rollback.owner = "A";
    cone = [ "B"; "C" ];
    prelude = "injected at tick 10\nrolled back: B,C\n";
    pre = pre_snaps;
    state = state_snaps;
  }

let start_journal ?crash_after dir =
  match Rollback.start ?crash_after ~dir plan with
  | Ok run -> run
  | Error e -> Alcotest.failf "start: %s" e

let crashed_after_one () =
  let dir = Harness.fresh_dir () in
  (match
     Rollback.restore_all (start_journal ~crash_after:1 dir)
       ~restore:(fun ~party:_ ~pre:_ -> ())
   with
  | () -> Alcotest.fail "crash hook did not fire"
  | exception C.Wal.Run.Simulated_crash 1 -> ());
  dir

let test_journal_roundtrip () =
  Harness.with_dir @@ fun dir ->
  let restored = ref [] in
  Rollback.restore_all (start_journal dir) ~restore:(fun ~party ~pre ->
      restored := (party, pre) :: !restored);
  Alcotest.(check (list (pair string string)))
    "restored in cone order" pre_snaps (List.rev !restored);
  check_bool "kind recorded" true (C.Wal.Run.kind ~dir = Ok "rollback");
  match Rollback.load ~dir with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok l ->
      check_bool "sealed" true l.Rollback.sealed;
      Alcotest.(check (list string)) "all committed" [ "B"; "C" ] (Rollback.restored l);
      Alcotest.(check string) "owner" "A" l.Rollback.plan.Rollback.owner;
      Alcotest.(check string)
        "prelude round-trips" "injected at tick 10\nrolled back: B,C\n"
        l.Rollback.plan.Rollback.prelude;
      Alcotest.(check (list (pair string string)))
        "pre snapshots" pre_snaps l.Rollback.plan.Rollback.pre;
      Alcotest.(check (list (pair string string)))
        "state snapshots" state_snaps l.Rollback.plan.Rollback.state

let test_journal_crash_resume () =
  let dir = crashed_after_one () in
  Fun.protect ~finally:(fun () -> Harness.rm_rf dir) @@ fun () ->
  (* torn run: one committed restore, not sealed *)
  (match Rollback.load ~dir with
  | Error e -> Alcotest.failf "load after crash: %s" e
  | Ok l ->
      check_bool "not sealed" false l.Rollback.sealed;
      Alcotest.(check (list string)) "one committed" [ "B" ] (Rollback.restored l));
  (* resume re-applies EVERY cone restore (pre-crash ones died with the
     process) and journals only the missing records *)
  let replayed = ref [] in
  (match
     Rollback.resume ~dir ~restore:(fun ~party ~pre ->
         replayed := (party, pre) :: !replayed) ()
   with
  | Error e -> Alcotest.failf "resume: %s" e
  | Ok l ->
      Alcotest.(check (list (pair string string)))
        "resume replays the whole cone" pre_snaps (List.rev !replayed);
      check_bool "meta survives" true (l.Rollback.plan.Rollback.cone = [ "B"; "C" ]));
  match Rollback.load ~dir with
  | Error e -> Alcotest.failf "reload: %s" e
  | Ok l ->
      check_bool "sealed after resume" true l.Rollback.sealed;
      Alcotest.(check (list string))
        "both committed exactly once" [ "B"; "C" ] (Rollback.restored l)

(* Crash after every record — plan, each restore, the seal — then
   resume: the final state is the same every time. *)
let test_every_crash_point () =
  let final dir =
    match
      Result.bind
        (Rollback.resume ~dir ~restore:(fun ~party:_ ~pre:_ -> ()) ())
        (fun _ -> Rollback.load ~dir)
    with
    | Ok l ->
        check_bool "sealed" true l.Rollback.sealed;
        String.concat ";"
          (List.map (fun (p, s) -> p ^ "=" ^ s) (Rollback.final_state l.Rollback.plan)
          @ Rollback.restored l)
    | Error e -> Alcotest.fail e
  in
  let full =
    Harness.with_dir @@ fun dir ->
    Rollback.restore_all (start_journal dir) ~restore:(fun ~party:_ ~pre:_ -> ());
    (final dir, Harness.records dir)
  in
  Harness.every_crash_point ~name:"rollback" ~records:(snd full)
    ~crashed:(fun ~crash_after dir ->
      Rollback.restore_all (start_journal ~crash_after dir)
        ~restore:(fun ~party:_ ~pre:_ -> ()))
    ~resume:(fun _ dir -> final dir)
    (fst full)

(* A crashed rollback whose plan is gone or edited is damaged: loading
   it — and so resuming it — is an [Error], never an escaping
   exception. *)
let test_journal_damaged () =
  let expect_error what dir =
    (match Rollback.load ~dir with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "load without %s must fail" what);
    (match Rollback.resume ~dir ~restore:(fun ~party:_ ~pre:_ -> ()) () with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "resume without %s must fail" what);
    Harness.rm_rf dir
  in
  let dir = crashed_after_one () in
  Sys.remove (Filename.concat dir "plan.json");
  expect_error "plan.json" dir;
  let dir = crashed_after_one () in
  let path = Filename.concat dir "plan.json" in
  let text = Harness.read path in
  let i = String.length text - 20 in
  Harness.write path
    (String.mapi (fun j c -> if j = i then (if c = 'a' then 'b' else 'a') else c) text);
  expect_error "an unedited plan.json" dir

(* --------------------- protocol: repair & withdrawal ---------------- *)

let test_protocol_repairs () =
  let t, a', _ = breaking_change () in
  (* adaptation off: the amendment search is the only healer *)
  let engine_config =
    { (C.Config.with_repair C.Config.default) with C.Config.auto_apply = false }
  in
  let r =
    C.Choreography.Protocol.run ~engine_config (M.copy t) ~owner:P.accounting
      ~changed:a'
  in
  check_bool "protocol agrees after repair" true r.C.Choreography.Protocol.agreed;
  check_bool "amendment search produced the fix" true
    (r.C.Choreography.Protocol.stats.C.Choreography.Protocol.repairs > 0);
  check_bool "no withdrawal" false r.C.Choreography.Protocol.rolled_back

let test_protocol_withdraws () =
  let t, a', _ = breaking_change () in
  let r =
    C.Choreography.Protocol.run ~adapt:false ~rollback:true (M.copy t)
      ~owner:P.accounting ~changed:a'
  in
  check_bool "withdrawn" true r.C.Choreography.Protocol.rolled_back;
  check_bool "agreed after withdrawal" true r.C.Choreography.Protocol.agreed;
  check_bool "abort cascade ran" true
    (r.C.Choreography.Protocol.stats.C.Choreography.Protocol.aborts > 0);
  (* every party is back to its pre-change public behaviour *)
  let final = r.C.Choreography.Protocol.final in
  check_bool "final equals pre-change model" true
    (List.for_all
       (fun p -> C.Equiv.equal_language (M.public final p) (M.public t p))
       (M.parties t))

(* ------------------- Evolution.run pool invariance ------------------ *)

(* In the pipeline, repair is a fallback: it fires only when the
   engine's own adaptation loop failed ([auto_apply] on, [adapted =
   None], still inconsistent). Simple rogue inserts never get there —
   the engine heals them — so the trigger is a deletion from the
   originator, whose counterexample the amendment vocabulary cannot
   fix either: the search must run, burn identical fuel at every pool
   size, and report unrepairable rather than mask the failure. *)
let deletion_change () =
  let t = model () in
  let a = M.private_ t P.accounting in
  let path, _ =
    A.all_nodes (C.Bpel.Process.body a)
    |> List.find (fun (_, act) ->
           match act with A.Sequence (_, _) -> true | _ -> false)
  in
  let a' =
    C.Change.Ops.apply_exn (C.Change.Ops.Delete_activity { path; index = 0 }) a
  in
  check_bool "deletion breaks consistency" false
    (C.Choreography.Consistency.consistent (M.update t a'));
  (t, a')

let test_evolution_repair_jobs () =
  let t, a' = deletion_change () in
  let report jobs =
    Harness.with_jobs jobs @@ fun () ->
    match
      C.Choreography.Evolution.run
        ~config:(C.Config.with_repair C.Config.default)
        (M.copy t) ~owner:P.accounting ~changed:a'
    with
    | Error (`Unknown_party p) -> Alcotest.failf "unknown party %s" p
    | Ok r -> r
  in
  let digest r =
    (* the repair-relevant shape of a report: per-partner amendment
       attempts, fuel, winner and verdict, plus the global verdict *)
    let row (p : C.Choreography.Evolution.partner_report) =
      ( p.C.Choreography.Evolution.partner,
        match p.C.Choreography.Evolution.repair with
        | None -> None
        | Some a ->
            Some
              ( a.Amend.attempts,
                a.Amend.fuel_spent,
                a.Amend.chosen,
                a.Amend.repaired <> None ) )
    in
    ( r.C.Choreography.Evolution.consistent,
      List.map
        (fun (rd : C.Choreography.Evolution.round) ->
          List.map row rd.C.Choreography.Evolution.partners)
        r.C.Choreography.Evolution.rounds )
  in
  let r1 = report 1 in
  let d1 = digest r1 and d2 = digest (report 2) and d8 = digest (report 8) in
  check_bool "jobs=1 = jobs=2" true (d1 = d2);
  check_bool "jobs=1 = jobs=8" true (d1 = d8);
  let attempted =
    List.concat_map (List.filter_map snd) (snd d1)
  in
  check_bool "the amendment search ran" true (attempted <> []);
  check_bool "it verified candidates" true
    (List.for_all (fun (attempts, _, _, _) -> attempts > 0) attempted);
  check_bool "unrepairable is reported, not masked" true
    (List.for_all (fun (_, _, _, healed) -> not healed) attempted);
  check_bool "pipeline stays honest about consistency" false (fst d1);
  (* with the policy off, the fallback never runs *)
  let off =
    match
      C.Choreography.Evolution.run ~config:C.Config.default (M.copy t)
        ~owner:P.accounting ~changed:a'
    with
    | Error (`Unknown_party p) -> Alcotest.failf "unknown party %s" p
    | Ok r -> r
  in
  check_bool "repair off ⇒ no searches" true
    (List.for_all
       (fun (rd : C.Choreography.Evolution.round) ->
         List.for_all
           (fun (p : C.Choreography.Evolution.partner_report) ->
             p.C.Choreography.Evolution.repair = None)
           rd.C.Choreography.Evolution.partners)
       off.C.Choreography.Evolution.rounds)

let () =
  Alcotest.run "repair"
    [
      ( "amend",
        [
          Alcotest.test_case "witness extraction" `Quick test_witness;
          Alcotest.test_case "search heals a rogue insert" `Quick
            test_amend_success;
          Alcotest.test_case "empty delta is unrepairable" `Quick
            test_amend_unrepairable;
          Alcotest.test_case "fuel starvation degrades" `Quick
            test_amend_starved;
          Alcotest.test_case "search is deterministic" `Quick
            test_amend_deterministic;
          Alcotest.test_case "candidate queue order" `Quick
            test_candidates_queue;
        ] );
      ( "rollback",
        [
          Alcotest.test_case "causal cone" `Quick test_cone;
          Alcotest.test_case "journal round trip" `Quick
            test_journal_roundtrip;
          Alcotest.test_case "crash then resume" `Quick
            test_journal_crash_resume;
          Alcotest.test_case "damaged journal is an error" `Quick
            test_journal_damaged;
          Alcotest.test_case "every crash point" `Quick test_every_crash_point;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "protocol self-heals" `Quick
            test_protocol_repairs;
          Alcotest.test_case "protocol withdraws" `Quick
            test_protocol_withdraws;
          Alcotest.test_case "evolution repair is pool-invariant" `Quick
            test_evolution_repair_jobs;
        ] );
    ]
