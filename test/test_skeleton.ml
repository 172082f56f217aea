(* Skeleton synthesis: public process → private process template
   (inverse of public-process generation). *)

module C = Chorev
module Sk = C.Skeleton
module P = C.Scenario.Procurement

let check_bool = Alcotest.(check bool)
let gen = C.Public_gen.public

let roundtrip name party proc =
  let pub = gen proc in
  match Sk.synthesize ~party pub with
  | Ok p ->
      check_bool (name ^ " valid") true (C.Bpel.Validate.is_valid p);
      check_bool
        (name ^ " regenerates the same language")
        true
        (C.Equiv.equal_language pub (gen p))
  | Error e -> Alcotest.fail (name ^ ": " ^ e)

let test_roundtrip_scenario () =
  roundtrip "buyer" "B" P.buyer_process;
  roundtrip "accounting" "A" P.accounting_process;
  roundtrip "logistics" "L" P.logistics_process;
  roundtrip "accounting-cancel" "A" P.accounting_cancel;
  roundtrip "accounting-once" "A" P.accounting_once;
  roundtrip "buyer-once" "B" P.buyer_once

let test_stub_from_view () =
  (* synthesizing the buyer's side from the accounting's buyer view
     yields a process consistent with the accounting — a conforming
     partner stub, the composition building block of the paper's
     ref [16] *)
  let view = C.View.tau ~observer:"B" (gen P.accounting_process) in
  match Sk.synthesize ~name:"buyer-stub" ~party:"B" view with
  | Ok stub ->
      check_bool "stub consistent" true
        (C.Consistency.consistent (gen stub) view);
      (* and its structure is the paper's: loop + choice *)
      let body = C.Bpel.Process.body stub in
      check_bool "has a loop" true
        (List.exists
           (fun (_, a) ->
             match a with C.Bpel.Activity.While _ -> true | _ -> false)
           (C.Bpel.Activity.all_nodes body))
  | Error e -> Alcotest.fail e

let test_structure_recovery () =
  (* external alternatives become a pick, internal ones a switch *)
  let recv2 =
    C.Afsa.of_strings ~start:0 ~finals:[ 1 ]
      ~edges:[ (0, "A#B#xOp", 1); (0, "A#B#yOp", 1) ]
      ()
  in
  (match Sk.synthesize ~party:"B" recv2 with
  | Ok p ->
      check_bool "pick for receives" true
        (List.exists
           (fun (_, a) ->
             match a with C.Bpel.Activity.Pick _ -> true | _ -> false)
           (C.Bpel.Activity.all_nodes (C.Bpel.Process.body p)))
  | Error e -> Alcotest.fail e);
  let send2 =
    C.Afsa.of_strings ~start:0 ~finals:[ 1 ]
      ~edges:[ (0, "B#A#xOp", 1); (0, "B#A#yOp", 1) ]
      ()
  in
  match Sk.synthesize ~party:"B" send2 with
  | Ok p ->
      check_bool "switch for sends" true
        (List.exists
           (fun (_, a) ->
             match a with C.Bpel.Activity.Switch _ -> true | _ -> false)
           (C.Bpel.Activity.all_nodes (C.Bpel.Process.body p)))
  | Error e -> Alcotest.fail e

let test_accept_and_continue () =
  (* a final state with continuation: stop-or-go switch *)
  let a =
    C.Afsa.of_strings ~start:0 ~finals:[ 1; 2 ]
      ~edges:[ (0, "B#A#xOp", 1); (1, "B#A#yOp", 2) ]
      ()
  in
  match Sk.synthesize ~party:"B" a with
  | Ok p ->
      let pub = gen p in
      check_bool "short word" true
        (C.Trace.accepts pub [ C.Label.of_string_exn "B#A#xOp" ]);
      check_bool "long word" true
        (C.Trace.accepts pub
           [ C.Label.of_string_exn "B#A#xOp"; C.Label.of_string_exn "B#A#yOp" ])
  | Error e -> Alcotest.fail e

let test_rejections () =
  let eps =
    C.Afsa.of_strings ~start:0 ~finals:[ 1 ] ~edges:[ (0, "", 1) ] ()
  in
  check_bool "eps rejected" true (Result.is_error (Sk.synthesize ~party:"B" eps));
  let ndet =
    C.Afsa.of_strings ~start:0 ~finals:[ 1; 2 ]
      ~edges:[ (0, "A#B#xOp", 1); (0, "A#B#xOp", 2) ]
      ()
  in
  check_bool "nondeterminism rejected" true
    (Result.is_error (Sk.synthesize ~party:"B" ndet));
  let foreign =
    C.Afsa.of_strings ~start:0 ~finals:[ 1 ] ~edges:[ (0, "X#Y#zOp", 1) ] ()
  in
  check_bool "foreign labels rejected" true
    (Result.is_error (Sk.synthesize ~party:"B" foreign));
  let mixed =
    C.Afsa.of_strings ~start:0 ~finals:[ 1 ]
      ~edges:[ (0, "A#B#inOp", 1); (0, "B#A#outOp", 1) ]
      ()
  in
  check_bool "mixed direction rejected" true
    (Result.is_error (Sk.synthesize ~party:"B" mixed))

let test_roundtrip_random_protocols () =
  for seed = 0 to 9 do
    let a = C.Workload.Gen_afsa.random_protocol ~seed ~states:8 () in
    let a = C.Minimize.minimize a in
    match Sk.synthesize ~party:"A" a with
    | Ok p ->
        check_bool
          (Printf.sprintf "seed %d language" seed)
          true
          (C.Equiv.equal_language a (gen p))
    | Error _ ->
        (* mixed-direction states are legitimate rejections *)
        ()
  done

(* ---------------------- differential vs the ref --------------------- *)

module E = C.Propagate.Engine
module Budget = C.Guard.Budget

(* A chain of k two-way diamonds, states 0..k with two edges from each
   state to the next: the old synthesizer re-emitted everything after
   each choice in both of its branches (4 * 2^k - 4 activities). *)
let diamonds k =
  C.Afsa.of_strings ~start:0 ~finals:[ k ]
    ~edges:
      (List.concat
         (List.init k (fun i ->
              [
                (i, Printf.sprintf "A#B#x%dOp" i, i + 1);
                (i, Printf.sprintf "A#B#y%dOp" i, i + 1);
              ])))
    ()

(* (name, party, target, the view a regenerated public is re-checked
   against) *)
let test_inputs () =
  List.map
    (fun (n, party, p) ->
      let a = gen p in
      (n, party, a, a))
    [
      ("buyer", "B", P.buyer_process);
      ("accounting", "A", P.accounting_process);
      ("logistics", "L", P.logistics_process);
      ("accounting-cancel", "A", P.accounting_cancel);
      ("accounting-once", "A", P.accounting_once);
      ("buyer-once", "B", P.buyer_once);
    ]
  @ (let view = C.View.tau ~observer:"B" (gen P.accounting_process) in
     [ ("stub", "B", view, view) ])
  @ List.init 10 (fun seed ->
        let a =
          C.Minimize.minimize
            (C.Workload.Gen_afsa.random_protocol ~seed ~states:8 ())
        in
        (Printf.sprintf "random %d" seed, "A", a, a))

(* [Engine.analyze]'s target for [partner] facing [changed]'s public *)
let targets ~name ~changed ~partner =
  let public_b, table_b = C.Public_gen.generate partner in
  List.map
    (fun (dn, direction) ->
      let an =
        E.analyze ~direction ~a':(gen changed) ~partner_private:partner
          ~public_b ~table_b ()
      in
      ( Printf.sprintf "%s %s" name dn,
        C.Bpel.Process.party partner,
        an.E.target_public,
        an.E.view_new ))
    [ ("additive", E.Additive); ("subtractive", E.Subtractive) ]

(* every procurement change against each partner of the accounting,
   Fig. 14 (cancel → buyer, additive) and Fig. 18 (once → buyer,
   subtractive) among them *)
let procurement_targets () =
  List.concat_map
    (fun (cn, changed) ->
      List.concat_map
        (fun (pn, partner) ->
          targets ~name:(cn ^ " → " ^ pn) ~changed ~partner)
        [ ("buyer", P.buyer_process); ("logistics", P.logistics_process) ])
    [
      ("order2", P.accounting_order2);
      ("cancel", P.accounting_cancel);
      ("once", P.accounting_once);
    ]

(* the owner replacement [Driver.gen_script] makes: the partner of
   [Gen_process.pair ~seed:i] facing the first process of
   [Gen_process.pair ~seed:(42 + 7919 (i + 1))] *)
let served_targets n =
  List.concat_map
    (fun i ->
      let _, partner = C.Workload.Gen_process.pair ~seed:i () in
      let changed, _ =
        C.Workload.Gen_process.pair ~seed:(42 + (7919 * (i + 1))) ()
      in
      targets ~name:(Printf.sprintf "served %d" i) ~changed ~partner)
    (List.init n Fun.id)

let diamond_inputs () =
  List.init 13 (fun k ->
      let a = diamonds k in
      (Printf.sprintf "%d diamonds" k, "A", a, a))

(* fuel the synthesis of [a] spends, with its result *)
let with_fuel ~party a =
  let budget = Budget.create () in
  match Budget.run budget (fun () -> Sk.synthesize ~party a) with
  | `Done r -> (r, Budget.spent budget)
  | `Exceeded _ -> Alcotest.fail "an unbounded budget tripped"

(* Ok/Error agree with the ref; on Ok, both regenerated publics have the
   input's plain language and the same re-check verdict against
   [view], their minimized forms have equal fingerprints (annotations
   included), the fuel spent is between one and two units per
   activity, and generating the synthesized process gives the automaton
   and table [Public_gen_ref] gives. *)
let differential (name, party, a, view) =
  match (with_fuel ~party a, Skeleton_ref.synthesize ~party a) with
  | (Ok p, fuel), Ok q ->
      let gp = gen p and gq = gen q in
      check_bool (name ^ ": language") true (C.Equiv.equal_language gp a);
      check_bool (name ^ ": ref language") true (C.Equiv.equal_language gq a);
      check_bool (name ^ ": re-check verdict") true
        (C.Consistency.consistent gp view = C.Consistency.consistent gq view);
      check_bool (name ^ ": annotations") true
        (C.Fingerprint.equal (C.Minimize.minimize gp) (C.Minimize.minimize gq));
      let size = C.Bpel.Process.size p in
      check_bool
        (Printf.sprintf "%s: fuel %d within [%d, %d]" name fuel size (2 * size))
        true
        (size <= fuel && fuel <= 2 * size);
      check_bool (name ^ ": generation = ref") true (Public_gen_ref.agrees p)
  | (Error _, _), Error _ -> ()
  | (Ok _, _), Error e -> Alcotest.failf "%s: ref failed (%s), new did not" name e
  | (Error e, _), Ok _ -> Alcotest.failf "%s: new failed (%s), ref did not" name e

let test_differential_skeleton_inputs () =
  List.iter differential (test_inputs () @ diamond_inputs ())

let test_differential_procurement () =
  List.iter differential (procurement_targets ())

let test_differential_served () = List.iter differential (served_targets 500)

(* ------------------------------ bounds ------------------------------ *)

let test_diamond_bound () =
  List.iter
    (fun k ->
      let a = diamonds k in
      match Sk.synthesize ~party:"A" a with
      | Error e -> Alcotest.fail e
      | Ok p ->
          let bound = 2 * (C.Afsa.num_states a + C.Afsa.num_edges a) in
          check_bool
            (Printf.sprintf "k = %d: %d activities within %d" k
               (C.Bpel.Process.size p) bound)
            true
            (C.Bpel.Process.size p <= bound);
          check_bool
            (Printf.sprintf "k = %d: language" k)
            true
            (C.Equiv.equal_language a (gen p)))
    [ 20; 2000 ]

let test_fuel_bound_trips () =
  match
    Budget.run (Budget.create ~fuel:1000 ()) (fun () ->
        Sk.synthesize ~party:"A" (diamonds 2000))
  with
  | `Exceeded info -> check_bool "fuel" true (info.Budget.reason = `Fuel)
  | `Done _ -> Alcotest.fail "2,000 diamonds fit 1,000 fuel"

let test_cycle_missing_loop_entry () =
  (* the loop is entered at 0, but 1 → 2 → 1 goes round without it *)
  let a =
    C.Afsa.of_strings ~start:0 ~finals:[ 0 ]
      ~edges:
        [
          (0, "A#B#aOp", 1);
          (1, "A#B#bOp", 2);
          (2, "A#B#cOp", 1);
          (2, "A#B#dOp", 0);
        ]
      ()
  in
  match Sk.synthesize ~party:"A" a with
  | Ok _ -> Alcotest.fail "accepted"
  | Error e -> Alcotest.(check string) "rejected" "skeleton: automaton too deep" e

let () =
  Alcotest.run "skeleton"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "scenario processes" `Quick test_roundtrip_scenario;
          Alcotest.test_case "random protocols" `Quick
            test_roundtrip_random_protocols;
        ] );
      ( "structure",
        [
          Alcotest.test_case "stub from view" `Quick test_stub_from_view;
          Alcotest.test_case "pick vs switch" `Quick test_structure_recovery;
          Alcotest.test_case "accept and continue" `Quick
            test_accept_and_continue;
        ] );
      ("rejections", [ Alcotest.test_case "errors" `Quick test_rejections ]);
      ( "differential",
        [
          Alcotest.test_case "test automata and diamonds" `Quick
            test_differential_skeleton_inputs;
          Alcotest.test_case "procurement targets" `Quick
            test_differential_procurement;
          Alcotest.test_case "served targets 0-499" `Quick
            test_differential_served;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "diamond chains" `Quick test_diamond_bound;
          Alcotest.test_case "fuel trips" `Quick test_fuel_bound_trips;
          Alcotest.test_case "cycle missing its loop entry" `Quick
            test_cycle_missing_loop_entry;
        ] );
    ]
