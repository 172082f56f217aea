(* Per-figure reproduction checks — one test per figure/table of the
   paper (the experiment index of DESIGN.md). Each test asserts the
   *shape* the paper reports: automaton sizes, emptiness verdicts,
   classification outcomes, localization points, adapted processes. *)

module C = Chorev
module A = C.Afsa
module F = C.Formula
module P = C.Scenario.Procurement

let evolve_ok t ~owner ~changed =
  match C.Choreography.Evolution.run t ~owner ~changed with
  | Ok r -> r
  | Error (`Unknown_party p) -> failwith ("unknown party " ^ p)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let gen = C.Public_gen.public
let l = C.Label.of_string_exn
let word = List.map l

let fig1_overview () =
  (* three parties, bilateral interactions A-B and A-L, consistent *)
  let t = C.Choreography.Model.of_processes (List.map snd P.parties) in
  Alcotest.(check (list string)) "parties" [ "A"; "B"; "L" ]
    (C.Choreography.Model.parties t);
  check_int "two bilateral relations" 2
    (List.length (C.Choreography.Model.pairs t));
  check_bool "choreography consistent" true
    (C.Choreography.Consistency.consistent t)

let fig2_accounting_private () =
  let p = P.accounting_process in
  check_bool "valid BPEL" true (C.Bpel.Validate.is_valid p);
  Alcotest.(check (list string)) "partners" [ "B"; "L" ] (C.Bpel.Process.partners p);
  (* 9 operations on the wire, the synchronous get_statusL counting in
     both directions: 10 labels *)
  check_int "alphabet" 10 (List.length (C.Bpel.Process.alphabet p))

let fig3_buyer_private () =
  let p = P.buyer_process in
  check_bool "valid BPEL" true (C.Bpel.Validate.is_valid p);
  (* the block structure of Fig. 3's inset *)
  let body = C.Bpel.Process.body p in
  check_bool "While:tracking present" true
    (C.Bpel.Edit.find_block ~name:"While:tracking" body <> None);
  check_bool "Switch:termination? present" true
    (C.Bpel.Edit.find_block ~name:"Switch:termination?" body <> None);
  check_bool "cond continue present" true
    (C.Bpel.Edit.find_block ~name:"Sequence:cond continue" body <> None);
  check_bool "cond terminate present" true
    (C.Bpel.Edit.find_block ~name:"Sequence:cond terminate" body <> None)

let fig4_pipeline () =
  (* the full controlled-evolution loop converges and re-establishes
     consistency for the cancel change *)
  let t = C.Choreography.Model.of_processes (List.map snd P.parties) in
  let rep =
    evolve_ok t ~owner:"A" ~changed:P.accounting_cancel
  in
  check_bool "consistent after evolution" true rep.C.Choreography.Evolution.consistent

let fig5_intersection () =
  check_bool "party A nonempty" true (C.Emptiness.is_nonempty C.Scenario.Fig5.party_a);
  check_bool "party B nonempty" true (C.Emptiness.is_nonempty C.Scenario.Fig5.party_b);
  let i = C.Scenario.Fig5.intersection () in
  check_bool "intersection empty (mandatory msg1 unsupported)" true
    (C.Emptiness.is_empty i);
  check_bool "plain language nonetheless nonempty" false
    (C.Emptiness.is_empty_plain (A.trim i))

let fig6_buyer_public_and_table1 () =
  let a, tbl = C.Public_gen.generate P.buyer_process in
  check_int "5 states" 5 (A.num_states a);
  check_bool "annotation at loop head" true
    (F.Sat.equivalent (A.annotation a 2)
       (F.and_ (F.var "B#A#get_statusOp") (F.var "B#A#terminateOp")));
  check_int "table rows" 5 (List.length (C.Table.states tbl))

let fig7_accounting_public () =
  let a = gen P.accounting_process in
  check_int "10 states" 10 (A.num_states a);
  check_bool "sync op appears in both directions" true
    (List.exists (fun lb -> C.Label.to_string lb = "A#L#get_statusLOp") (A.alphabet a)
    && List.exists (fun lb -> C.Label.to_string lb = "L#A#get_statusLOp") (A.alphabet a))

let fig8_views () =
  let pub = gen P.accounting_process in
  let vb = C.View.tau ~observer:"B" pub in
  let vl = C.View.tau ~observer:"L" pub in
  check_int "buyer view 5 states" 5 (A.num_states vb);
  check_int "logistics view 5 states" 5 (A.num_states vl);
  check_bool "buyer view has only B labels" true
    (List.for_all (C.Label.involves "B") (A.alphabet vb));
  check_bool "logistics view has only L labels" true
    (List.for_all (C.Label.involves "L") (A.alphabet vl))

let fig9_invariant_change () =
  (* order_2 is handled as an additional pick arm on the first receive *)
  let p = P.accounting_order2 in
  check_bool "valid" true (C.Bpel.Validate.is_valid p);
  check_bool "accepts order_2 conversation prefix" true
    (C.Trace.accepts
       (C.View.tau ~observer:"B" (gen p))
       (word
          [ "B#A#order_2Op"; "A#B#deliveryOp"; "B#A#terminateOp" ]))

let fig10_invariant_check () =
  let v2 = C.View.tau ~observer:"B" (gen P.accounting_order2) in
  let b = gen P.buyer_process in
  (* (a) the view changed — order_2 added *)
  check_bool "view changed" false
    (C.Equiv.equal_language v2 (C.View.tau ~observer:"B" (gen P.accounting_process)));
  (* (b) intersection is non-empty: invariant, no propagation *)
  check_bool "intersection non-empty" true (C.Consistency.consistent v2 b)

let fig11_variant_additive () =
  let p = P.accounting_cancel in
  check_bool "valid" true (C.Bpel.Validate.is_valid p);
  let v = C.View.tau ~observer:"B" (gen p) in
  check_bool "cancel conversation" true
    (C.Trace.accepts v (word [ "B#A#orderOp"; "A#B#cancelOp" ]));
  (* Fig 12a annotation: cancelOp AND deliveryOp *)
  let ann_states =
    List.filter
      (fun (_, f) ->
        F.Sat.equivalent f
          (F.and_ (F.var "A#B#cancelOp") (F.var "A#B#deliveryOp")))
      (A.annotations v)
  in
  check_bool "cancel∧delivery annotation present" true (ann_states <> [])

let fig12_variant_check () =
  let v = C.View.tau ~observer:"B" (gen P.accounting_cancel) in
  let b = gen P.buyer_process in
  check_bool "intersection EMPTY" true
    (C.Emptiness.is_empty (C.Ops.intersect v b))

let fig13_propagation_delta () =
  let b = gen P.buyer_process in
  let v = C.View.tau ~observer:"B" (gen P.accounting_cancel) in
  let delta = C.Minimize.minimize (C.Ops.difference v b) in
  (* Fig 13a: order then cancel, 3 states *)
  check_int "delta 3 states" 3 (A.num_states delta);
  check_bool "order,cancel" true
    (C.Trace.accepts delta (word [ "B#A#orderOp"; "A#B#cancelOp" ]));
  (* Fig 13b: union = new buyer public with both obligations *)
  let b' = C.Minimize.minimize (C.Ops.union delta b) in
  check_int "new public 5 states" 5 (A.num_states b');
  check_bool "keeps old conversations" true
    (C.Trace.accepts b'
       (word [ "B#A#orderOp"; "A#B#deliveryOp"; "B#A#terminateOp" ]));
  check_bool "adds cancel" true
    (C.Trace.accepts b' (word [ "B#A#orderOp"; "A#B#cancelOp" ]))

let fig14_private_adaptation () =
  let o =
    C.Propagate.Engine.run ~direction:C.Propagate.Engine.Additive
      ~a':(gen P.accounting_cancel) ~partner_private:P.buyer_process ()
  in
  check_bool "auto-adapted" true (Option.is_some o.C.Propagate.Engine.adapted);
  let adapted = Option.get o.C.Propagate.Engine.adapted in
  (* the receive delivery became a pick (paper's described edit) *)
  check_bool "pick introduced" true
    (List.exists
       (fun (_, a) ->
         match a with C.Bpel.Activity.Pick _ -> true | _ -> false)
       (C.Bpel.Activity.all_nodes (C.Bpel.Process.body adapted)));
  check_bool "language = fig14" true
    (C.Equiv.equal_language
       (Option.get o.C.Propagate.Engine.adapted_public)
       (gen P.buyer_with_cancel))

let fig15_variant_subtractive () =
  let p = P.accounting_once in
  check_bool "valid" true (C.Bpel.Validate.is_valid p);
  let v = C.View.tau ~observer:"B" (gen p) in
  check_bool "one round allowed" true
    (C.Trace.accepts v
       (word
          [
            "B#A#orderOp"; "A#B#deliveryOp"; "B#A#get_statusOp";
            "A#B#statusOp"; "B#A#terminateOp";
          ]));
  check_bool "two rounds impossible" false
    (C.Trace.accepts v
       (word
          [
            "B#A#orderOp"; "A#B#deliveryOp"; "B#A#get_statusOp";
            "A#B#statusOp"; "B#A#get_statusOp"; "A#B#statusOp";
            "B#A#terminateOp";
          ]))

let fig16_subtractive_check () =
  let v = C.View.tau ~observer:"B" (gen P.accounting_once) in
  let b = gen P.buyer_process in
  (* plain languages still overlap… *)
  check_bool "plain intersection nonempty" false
    (C.Emptiness.is_empty_plain (A.trim (C.Ops.intersect v b)));
  (* …but the annotated intersection is empty: get_statusOp mandatory at
     the second tracking state is unsupported *)
  check_bool "annotated intersection EMPTY" true
    (C.Emptiness.is_empty (C.Ops.intersect v b))

let fig17_subtractive_delta () =
  let b = gen P.buyer_process in
  let v = C.View.tau ~observer:"B" (gen P.accounting_once) in
  (* Fig 17a: removed sequences = ≥2 tracking rounds *)
  let removed = C.Ops.difference b v in
  check_bool "two rounds removed" true
    (C.Trace.accepts removed
       (word
          [
            "B#A#orderOp"; "A#B#deliveryOp"; "B#A#get_statusOp";
            "A#B#statusOp"; "B#A#get_statusOp"; "A#B#statusOp";
            "B#A#terminateOp";
          ]));
  check_bool "one round not removed" false
    (C.Trace.accepts removed
       (word
          [
            "B#A#orderOp"; "A#B#deliveryOp"; "B#A#get_statusOp";
            "A#B#statusOp"; "B#A#terminateOp";
          ]));
  (* Fig 17b: B' = B ∖ removed allows ≤1 round *)
  let b' = C.Ops.difference b removed in
  check_bool "zero rounds ok" true
    (C.Trace.accepts b'
       (word [ "B#A#orderOp"; "A#B#deliveryOp"; "B#A#terminateOp" ]));
  check_bool "one round ok" true
    (C.Trace.accepts b'
       (word
          [
            "B#A#orderOp"; "A#B#deliveryOp"; "B#A#get_statusOp";
            "A#B#statusOp"; "B#A#terminateOp";
          ]));
  check_bool "two rounds gone" false
    (C.Trace.accepts b'
       (word
          [
            "B#A#orderOp"; "A#B#deliveryOp"; "B#A#get_statusOp";
            "A#B#statusOp"; "B#A#get_statusOp"; "A#B#statusOp";
            "B#A#terminateOp";
          ]))

let fig18_subtractive_adaptation () =
  let o =
    C.Propagate.Engine.run ~direction:C.Propagate.Engine.Subtractive
      ~a':(gen P.accounting_once) ~partner_private:P.buyer_process ()
  in
  check_bool "auto-adapted" true (Option.is_some o.C.Propagate.Engine.adapted);
  check_bool "language = fig18" true
    (C.Equiv.equal_language
       (Option.get o.C.Propagate.Engine.adapted_public)
       (gen P.buyer_once));
  (* the paper's follow-up remark: logistics remains consistent *)
  check_bool "logistics unaffected (invariant)" true
    (C.Consistency.consistent
       (gen P.logistics_process)
       (C.View.tau ~observer:"L" (gen P.accounting_once)))

(* The report behind [chorev experiments]: every artifact of the paper
   re-derived and reproduced. *)
let reproduction_report () =
  let rows = C.Scenario.Report.all () in
  check_int "19 artifacts" 19 (List.length rows);
  List.iter
    (fun (r : C.Scenario.Report.row) ->
      check_bool (r.id ^ " reproduced") true r.ok)
    rows

let () =
  Alcotest.run "figures"
    [
      ( "paper-figures",
        [
          Alcotest.test_case "fig1 overview" `Quick fig1_overview;
          Alcotest.test_case "fig2 accounting private" `Quick
            fig2_accounting_private;
          Alcotest.test_case "fig3 buyer private" `Quick fig3_buyer_private;
          Alcotest.test_case "fig4 pipeline" `Quick fig4_pipeline;
          Alcotest.test_case "fig5 intersection" `Quick fig5_intersection;
          Alcotest.test_case "fig6 + table1" `Quick
            fig6_buyer_public_and_table1;
          Alcotest.test_case "fig7 accounting public" `Quick
            fig7_accounting_public;
          Alcotest.test_case "fig8 views" `Quick fig8_views;
          Alcotest.test_case "fig9 invariant change" `Quick
            fig9_invariant_change;
          Alcotest.test_case "fig10 invariant check" `Quick
            fig10_invariant_check;
          Alcotest.test_case "fig11 variant additive" `Quick
            fig11_variant_additive;
          Alcotest.test_case "fig12 variant check" `Quick fig12_variant_check;
          Alcotest.test_case "fig13 propagation delta" `Quick
            fig13_propagation_delta;
          Alcotest.test_case "fig14 private adaptation" `Quick
            fig14_private_adaptation;
          Alcotest.test_case "fig15 variant subtractive" `Quick
            fig15_variant_subtractive;
          Alcotest.test_case "fig16 subtractive check" `Quick
            fig16_subtractive_check;
          Alcotest.test_case "fig17 subtractive delta" `Quick
            fig17_subtractive_delta;
          Alcotest.test_case "fig18 subtractive adaptation" `Quick
            fig18_subtractive_adaptation;
          Alcotest.test_case "reproduction report" `Quick
            reproduction_report;
        ] );
    ]
