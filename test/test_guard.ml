(* The resource-governance layer (lib/guard + the budgeted algebra):
   budget unit behaviour, cancellation, fuel determinism across pool
   sizes, the adversarial-blowup deadline, and the engine's degrade
   policies. *)

module C = Chorev
module B = C.Guard.Budget
module M = C.Choreography.Model
module Ev = C.Choreography.Evolution
module P = C.Scenario.Procurement
module W = C.Workload.Gen_afsa

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let procurement () = M.of_processes (List.map snd P.parties)

(* ------------------------------ units ------------------------------- *)

let test_unlimited_is_free () =
  check_bool "unlimited" true (B.is_unlimited B.unlimited);
  check_bool "spec unlimited" true (B.spec_is_unlimited B.spec_unlimited);
  (* of_spec with no bounds returns the singleton *)
  check_bool "of_spec singleton" true (B.is_unlimited (B.of_spec B.spec_unlimited));
  (* ticking it forever is a no-op *)
  for _ = 1 to 1_000 do
    B.tick B.unlimited
  done;
  check_int "no fuel spent" 0 (B.spent B.unlimited)

let test_fuel_trips_exactly () =
  let b = B.create ~fuel:10 () in
  for _ = 1 to 10 do
    B.tick b
  done;
  check_int "spent all" 10 (B.spent b);
  check_bool "not yet tripped" true (B.exceeded b = None);
  (match B.tick b with
  | () -> Alcotest.fail "tick past fuel must raise"
  | exception B.Expired info ->
      check_bool "fuel reason" true (info.B.reason = `Fuel));
  check_bool "stays tripped" true (B.exceeded b <> None)

let test_run_converts_expired () =
  let b = B.create ~fuel:5 () in
  (match
     B.run b (fun () ->
         for _ = 1 to 100 do
           B.tick b
         done)
   with
  | `Done () -> Alcotest.fail "must exceed"
  | `Exceeded info -> check_bool "fuel" true (info.B.reason = `Fuel));
  (* a successful run returns `Done *)
  let b2 = B.create ~fuel:5 () in
  match B.run b2 (fun () -> B.tick b2; 42) with
  | `Done v -> check_int "done value" 42 v
  | `Exceeded _ -> Alcotest.fail "must not exceed"

let test_run_does_not_eat_foreign_trips () =
  (* an enclosing budget's Expired must propagate through an inner
     Budget.run, not be converted at the wrong level *)
  let outer = B.create ~fuel:3 () in
  let inner = B.create ~fuel:1_000 () in
  match
    B.run inner (fun () ->
        for _ = 1 to 100 do
          B.tick outer
        done)
  with
  | `Done () | `Exceeded _ -> Alcotest.fail "outer trip must escape inner run"
  | exception B.Expired info -> check_bool "outer's info" true (info.B.reason = `Fuel)

let test_sub_and_charge () =
  let parent = B.create ~fuel:100 () in
  let child = B.sub parent { B.fuel = Some 1_000; timeout_s = None } in
  (* the child is capped by the parent's remainder *)
  (match
     B.run child (fun () ->
         while true do
           B.tick child
         done)
   with
  | `Done _ -> assert false
  | `Exceeded info -> check_int "child capped at parent remainder" 100 info.B.spent);
  B.charge parent (B.spent child);
  match B.charge parent 1 with
  | () -> Alcotest.fail "parent must be out of fuel"
  | exception B.Expired info -> check_bool "parent fuel" true (info.B.reason = `Fuel)

(* -------------------------- budgeted algebra ------------------------ *)

(* [density] is edges per state, so 6.0 on 30 states ≈ 180 edges; the
   product explores far more than a handful of pair states but its
   canonical form (used by [equal_annotated]) stays cheap *)
let dense seed = W.random ~seed ~states:30 ~labels:8 ~density:6.0 ()

let test_guarded_ops_exceed () =
  (* a ∩ a: a self-product is guaranteed to explore at least the
     diagonal (two independent random seeds often share no path from
     the start, fizzling to a one-state product) *)
  let a = dense 1 in
  let b = a in
  let intersect budget =
    B.run budget (fun () -> C.Ops.intersect ~budget a b)
  in
  (match intersect (B.create ~fuel:3 ()) with
  | `Exceeded _ -> ()
  | `Done _ -> Alcotest.fail "3 fuel units cannot build this product");
  (* same inputs, enough fuel: `Done, equal to the unbudgeted result *)
  match intersect (B.create ~fuel:10_000_000 ()) with
  | `Exceeded info -> Alcotest.failf "unexpected trip: %a" B.pp_info info
  | `Done p ->
      check_bool "same as unbudgeted" true
        (C.Equiv.equal_annotated p (C.Ops.intersect a b))

(* --------------------------- determinism ---------------------------- *)

(* Same (input, fuel) must produce the same `Done/`Exceeded split at
   every pool size: budgets are minted inside the pool tasks, and fuel
   is a property of the work, not the schedule. *)
let degraded_signature report =
  List.map
    (fun (r : Ev.round) ->
      ( r.Ev.originator,
        List.map
          (fun (pr : Ev.partner_report) ->
            ( pr.Ev.partner,
              pr.Ev.degraded <> [],
              match pr.Ev.outcome with
              | None -> false
              | Some o -> o.C.Propagate.Engine.degraded <> [] ))
          r.Ev.partners ))
    report.Ev.rounds

let evolve_with ~jobs config t changed =
  match
    Harness.with_jobs jobs (fun () -> Ev.run ~config t ~owner:"A" ~changed)
  with
  | Ok rep -> rep
  | Error (`Unknown_party p) -> Alcotest.failf "unknown party %s" p

let run_with ~jobs ~fuel t changed =
  evolve_with ~jobs
    { C.Config.default with op_budget = { B.fuel; timeout_s = None } }
    t changed

(* Each budget trip as (marker, reason, units spent): everything in it
   but the elapsed time. *)
let trips =
  List.map (function
    | C.Guard.Degrade.Skipped_minimization i ->
        ("skipped-minimization", i.B.reason, i.B.spent)
    | Unknown_verdict { step; info } -> ("unknown:" ^ step, info.reason, info.spent)
    | Aborted_step { step; info } -> ("aborted:" ^ step, info.reason, info.spent))

let test_pool_size_determinism () =
  let t = procurement () in
  List.iter
    (fun fuel ->
      let r1 = run_with ~jobs:1 ~fuel t P.accounting_cancel in
      let r2 = run_with ~jobs:2 ~fuel t P.accounting_cancel in
      let r8 = run_with ~jobs:8 ~fuel t P.accounting_cancel in
      let s1 = degraded_signature r1 in
      check_bool "pool 1 = pool 2" true (s1 = degraded_signature r2);
      check_bool "pool 1 = pool 8" true (s1 = degraded_signature r8);
      check_bool "same verdict" true
        (r1.Ev.consistent = r2.Ev.consistent
        && r2.Ev.consistent = r8.Ev.consistent))
    [ Some 50; Some 5_000; Some 500_000; None ];
  (* Round fuel 35 runs out two units into B's plain test of its first
     retry candidate (step 5): the partner's trips, spends included, are
     the same at every pool size. *)
  let engine_trips jobs =
    let config =
      { C.Config.default with round_budget = { B.fuel = Some 35; timeout_s = None } }
    in
    List.concat_map
      (fun (r : Ev.round) ->
        List.map
          (fun (pr : Ev.partner_report) ->
            ( pr.Ev.partner,
              match pr.Ev.outcome with
              | None -> []
              | Some o -> trips o.C.Propagate.Engine.degraded ))
          r.Ev.partners)
      (evolve_with ~jobs config t P.accounting_cancel).Ev.rounds
  in
  let s1 = engine_trips 1 in
  check_bool "B's plain test trips first" true
    (match List.assoc_opt "B" s1 with
    | Some (("unknown:re-check", `Fuel, 2) :: _) -> true
    | _ -> false);
  check_bool "round trips, pool 1 = pool 2" true (s1 = engine_trips 2);
  check_bool "round trips, pool 1 = pool 8" true (s1 = engine_trips 8)

(* ------------------------- adversarial blowup ----------------------- *)

(* The product of dense random automata blows up combinatorially; under
   a deadline the op must return `Exceeded within (roughly) that
   deadline instead of hanging. *)
let test_blowup_exceeds_within_deadline () =
  let a = W.random ~seed:11 ~states:400 ~labels:4 ~density:30.0 ()
  and b = W.random ~seed:12 ~states:400 ~labels:4 ~density:30.0 ()
  and c = W.random ~seed:13 ~states:400 ~labels:4 ~density:30.0 () in
  let deadline = 0.5 in
  let budget = B.create ~timeout_s:deadline () in
  let t0 = Unix.gettimeofday () in
  let r =
    B.run budget (fun () ->
        C.Ops.intersect ~budget (C.Ops.intersect ~budget a b) c)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match r with
  | `Exceeded info -> check_bool "deadline reason" true (info.B.reason = `Deadline)
  | `Done _ -> Alcotest.fail "dense 400^3 product must not fit 0.5 s");
  (* amortized polling adds slack, but the unwind must be prompt *)
  check_bool
    (Printf.sprintf "returned within 4x the deadline (%.2fs)" elapsed)
    true
    (elapsed < 4.0 *. deadline)

(* --------------------------- engine degrade ------------------------- *)

let test_engine_degrades_not_raises () =
  let t = procurement () in
  (* fuel far too small for any real step: every partner pipeline
     degrades, nothing raises, and the report says so *)
  let config =
    {
      C.Config.default with
      op_budget = { B.fuel = Some 2; timeout_s = None };
      round_budget = { B.fuel = Some 4; timeout_s = None };
    }
  in
  match Ev.run ~config t ~owner:"A" ~changed:P.accounting_cancel with
  | Error (`Unknown_party p) -> Alcotest.failf "unknown party %s" p
  | Ok rep ->
      let any_degraded =
        List.exists
          (fun (r : Ev.round) ->
            List.exists
              (fun (pr : Ev.partner_report) ->
                pr.Ev.degraded <> []
                ||
                match pr.Ev.outcome with
                | None -> false
                | Some o -> o.C.Propagate.Engine.degraded <> [])
              r.Ev.partners)
          rep.Ev.rounds
      in
      check_bool "some step degraded" true any_degraded;
      (* degraded runs never silently claim success: starved re-checks
         count as inconsistent *)
      check_bool "no false consistency claim" false rep.Ev.consistent

let test_unlimited_config_unchanged () =
  (* the default config must behave exactly as before the guard layer *)
  let t = procurement () in
  match Ev.run t ~owner:"A" ~changed:P.accounting_cancel with
  | Error (`Unknown_party p) -> Alcotest.failf "unknown party %s" p
  | Ok rep ->
      check_bool "consistent" true rep.Ev.consistent;
      List.iter
        (fun (r : Ev.round) ->
          List.iter
            (fun (pr : Ev.partner_report) ->
              check_bool "no degrade markers" true (pr.Ev.degraded = []);
              match pr.Ev.outcome with
              | None -> ()
              | Some o ->
                  check_bool "no engine degrade" true
                    (o.C.Propagate.Engine.degraded = []))
            r.Ev.partners)
        rep.Ev.rounds

(* The engine's last resort under op fuel: seed 16 of the served-script
   corpus (see test_propagate's compact resynthesis case) reaches
   resynthesis with every targeted retry failed. Sweeping the op fuel
   upwards one unit at a time, some value lets every earlier step
   finish but not the synthesis: the partner is kept and the trip is
   the only degradation reported. *)
let resynthesize_sweep () =
  let _, partner = C.Workload.Gen_process.pair ~seed:16 () in
  let owner, _ = C.Workload.Gen_process.pair ~seed:(42 + (7919 * 17)) () in
  let a' = C.Public_gen.public owner in
  let signature (o : C.Propagate.Engine.outcome) =
    (Option.map C.Bpel.Process.name o.adapted, o.consistent_after, trips o.degraded)
  in
  let rec sweep fuel acc =
    if fuel > 4096 then List.rev acc
    else
      let config =
        { C.Config.default with op_budget = { B.fuel = Some fuel; timeout_s = None } }
      in
      let o =
        C.Propagate.Engine.run ~config ~direction:C.Propagate.Engine.Additive ~a'
          ~partner_private:partner ()
      in
      let acc = (fuel, signature o) :: acc in
      match o.degraded with
      | [ C.Guard.Degrade.Aborted_step { step = "resynthesize"; _ } ] ->
          List.rev acc
      | _ -> sweep (fuel + 1) acc
  in
  sweep 1 []

let test_resynthesis_degrades () =
  let first = resynthesize_sweep () in
  (match List.rev first with
  | (fuel, (adapted, consistent, degraded)) :: _ ->
      check_bool
        (Printf.sprintf "op fuel %d aborts resynthesis alone" fuel)
        true
        (match degraded with
        | [ ("aborted:resynthesize", `Fuel, _) ] -> true
        | _ -> false);
      check_bool "partner kept" true (adapted = None);
      check_bool "not consistent" false consistent
  | [] -> Alcotest.fail "empty sweep");
  check_bool "sweep is deterministic" true (first = resynthesize_sweep ())

(* The plain test of step 5 runs under the re-check's op budget, drawn
   from the round. Seed 82 of the generator corpus, an additive edit,
   leaves the partner one applicable suggestion, whose candidate passes
   the plain test and adapts the partner under no budget. A round fuel
   that covers steps 1-4 and all but one unit of that test trips inside
   it: the trip is reported as a re-check that could not be decided,
   and the partner is kept. *)
let test_plain_test_trips () =
  let module E = C.Propagate.Engine in
  let module S = C.Propagate.Suggest in
  let seed = 82 and direction = E.Additive in
  let owner, partner = C.Workload.Gen_process.pair ~seed () in
  let a' =
    match
      Option.map
        (fun op -> C.Change.Ops.apply op owner)
        (C.Workload.Gen_change.additive ~seed owner)
    with
    | Some (Ok p) -> C.Public_gen.public p
    | None | Some (Error _) -> Alcotest.fail "no additive edit applies"
  in
  let public_b, table_b = C.Public_gen.generate partner in
  let round = B.create ~fuel:max_int () in
  let an =
    E.analyze ~round ~direction ~a' ~partner_private:partner ~public_b ~table_b ()
  in
  check_bool "steps 1-4 undegraded" true (an.E.degraded = []);
  let candidate =
    match List.filter (fun s -> not (S.is_manual s)) an.E.suggestions with
    | [ s ] -> (
        match S.apply s partner with
        | Ok p -> p
        | Error _ -> Alcotest.fail "the suggestion does not apply")
    | l -> Alcotest.failf "%d applicable suggestions, want 1" (List.length l)
  in
  let plain = B.create ~fuel:max_int () in
  (match B.run plain (fun () -> C.Public_gen.meets candidate an.E.view_new) with
  | `Done true -> ()
  | _ -> Alcotest.fail "the candidate fails the plain test");
  let run fuel =
    E.run
      ~config:
        { C.Config.default with round_budget = { B.fuel; timeout_s = None } }
      ~direction ~a' ~partner_private:partner ()
  in
  check_bool "adapted under no budget" true
    (Option.is_some (run None).E.adapted);
  let o = run (Some (B.spent round + B.spent plain - 1)) in
  (match trips o.E.degraded with
  | (marker, reason, spent) :: _ ->
      Alcotest.(check string) "first trip" "unknown:re-check" marker;
      check_bool "fuel trip" true (reason = `Fuel);
      check_int "one unit short of the plain test" (B.spent plain - 1) spent
  | [] -> Alcotest.fail "no trip");
  check_bool "partner kept" true (o.E.adapted = None);
  check_bool "not consistent" false o.E.consistent_after

(* ----------------------------- protocol ----------------------------- *)

let test_protocol_under_starved_budget () =
  (* a starved node nacks instead of adapting: the protocol terminates
     (no retry storm) and reports disagreement *)
  let t = procurement () in
  let config =
    {
      C.Config.default with
      op_budget = { B.fuel = Some 2; timeout_s = None };
    }
  in
  let r =
    C.Choreography.Protocol.run ~engine_config:config t ~owner:"A"
      ~changed:P.accounting_cancel
  in
  check_bool "starved protocol disagrees" false r.C.Choreography.Protocol.agreed;
  (* and with the default config the same run agrees *)
  let r' = C.Choreography.Protocol.run t ~owner:"A" ~changed:P.accounting_cancel in
  check_bool "unlimited protocol agrees" true r'.C.Choreography.Protocol.agreed

let () =
  Alcotest.run "guard"
    [
      ( "budget",
        [
          Alcotest.test_case "unlimited is free" `Quick test_unlimited_is_free;
          Alcotest.test_case "fuel trips exactly" `Quick test_fuel_trips_exactly;
          Alcotest.test_case "run converts Expired" `Quick
            test_run_converts_expired;
          Alcotest.test_case "foreign trips escape" `Quick
            test_run_does_not_eat_foreign_trips;
          Alcotest.test_case "sub/charge composition" `Quick
            test_sub_and_charge;
        ] );
      ( "algebra",
        [
          Alcotest.test_case "guarded ops exceed and agree" `Quick
            test_guarded_ops_exceed;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "pool sizes 1/2/8" `Slow
            test_pool_size_determinism;
        ] );
      ( "resynthesis",
        [
          Alcotest.test_case "op fuel aborts it, deterministically" `Quick
            test_resynthesis_degrades;
        ] );
      ( "re-check",
        [
          Alcotest.test_case "a trip in the plain test is a re-check trip"
            `Quick test_plain_test_trips;
        ] );
      ( "blowup",
        [
          Alcotest.test_case "dense product exceeds within deadline" `Quick
            test_blowup_exceeds_within_deadline;
        ] );
      ( "degrade",
        [
          Alcotest.test_case "engine degrades, never raises" `Quick
            test_engine_degrades_not_raises;
          Alcotest.test_case "default config full fidelity" `Quick
            test_unlimited_config_unchanged;
          Alcotest.test_case "protocol under starvation" `Quick
            test_protocol_under_starved_budget;
        ] );
    ]
