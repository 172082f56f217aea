(* Change operations and their classification (Sec. 4, Defs. 5 & 6). *)

module C = Chorev
module A = C.Afsa
module B = C.Bpel
module Act = B.Activity
module Ops = C.Change.Ops
module Cl = C.Change.Classify
module P = C.Scenario.Procurement

let check_bool = Alcotest.(check bool)
let gen p = C.Public_gen.public p

(* ------------------------------ apply ------------------------------ *)

let test_apply_insert () =
  let op =
    Ops.Insert_activity
      { path = []; pos = 0; act = Act.invoke ~partner:"A" ~op:"get_statusOp" }
  in
  let p' = Ops.apply_exn op P.buyer_process in
  check_bool "size grew" true (B.Process.size p' > B.Process.size P.buyer_process)

let test_apply_delete () =
  let op = Ops.Delete_activity { path = []; index = 2 } in
  let p' = Ops.apply_exn op P.buyer_process in
  check_bool "size shrank" true (B.Process.size p' < B.Process.size P.buyer_process)

let test_apply_receive_to_pick () =
  let op =
    Ops.Receive_to_pick
      {
        path = [ 1 ];
        name = "alt";
        arms = [ Act.on_message ~partner:"A" ~op:"cancelOp" Act.Terminate ];
      }
  in
  let p' = Ops.apply_exn op P.buyer_process in
  check_bool "language equals hand-built fig14" true
    (C.Equiv.equal_language (gen p') (gen P.buyer_with_cancel))

let test_apply_compound () =
  let op =
    Ops.Compound
      [
        Ops.Insert_activity
          { path = []; pos = 0; act = Act.Assign "x" };
        Ops.Insert_activity
          { path = []; pos = 0; act = Act.Assign "y" };
      ]
  in
  let p' = Ops.apply_exn op P.buyer_process in
  check_bool "both applied" true
    (B.Process.size p' = B.Process.size P.buyer_process + 2)

let test_apply_compound_atomic () =
  let op =
    Ops.Compound
      [
        Ops.Insert_activity { path = []; pos = 0; act = Act.Assign "x" };
        Ops.Delete_activity { path = [ 99 ]; index = 0 };
      ]
  in
  check_bool "fails as a whole" true (Result.is_error (Ops.apply op P.buyer_process))

let test_apply_errors () =
  check_bool "bad path" true
    (Result.is_error
       (Ops.apply (Ops.Remove_loop { path = [ 0 ] }) P.buyer_process));
  check_bool "to_string total" true
    (String.length
       (Ops.to_string
          (Ops.Compound [ Ops.Remove_loop { path = [ 2 ] } ]))
    > 0)

(* ------------------------ shift / structure ops -------------------- *)

let labels p = C.Afsa.alphabet (gen p)

let test_move_activity () =
  (* moving an activity within the buyer sequence reorders the public
     process (a shift operation, Sec. 4) *)
  let op =
    Ops.Move_activity { from_path = []; from_index = 0; to_path = []; to_index = 2 }
  in
  let p' = Ops.apply_exn op P.buyer_process in
  check_bool "same size" true (B.Process.size p' = B.Process.size P.buyer_process);
  check_bool "language changed" false
    (C.Equiv.equal_language (gen p') (gen P.buyer_process));
  check_bool "same alphabet" true
    (List.equal C.Label.equal (labels p') (labels P.buyer_process));
  (* moving to the same position is the identity *)
  let id_op =
    Ops.Move_activity { from_path = []; from_index = 1; to_path = []; to_index = 1 }
  in
  check_bool "identity move" true
    (B.Activity.equal
       (B.Process.body (Ops.apply_exn id_op P.buyer_process))
       (B.Process.body P.buyer_process))

let test_swap_activities () =
  let op = Ops.Swap_activities { path = []; i = 0; j = 1 } in
  let p' = Ops.apply_exn op P.buyer_process in
  check_bool "language changed" false
    (C.Equiv.equal_language (gen p') (gen P.buyer_process));
  (* swapping back restores the original *)
  let p'' = Ops.apply_exn op p' in
  check_bool "involution" true
    (B.Activity.equal (B.Process.body p'') (B.Process.body P.buyer_process));
  check_bool "bad index" true
    (Result.is_error (Ops.apply (Ops.Swap_activities { path = []; i = 0; j = 9 }) P.buyer_process))

let test_parallelize_serialize () =
  (* parallelizing the first two steps of the accounting process lets
     order and deliver interleave *)
  let reg = B.Process.registry P.accounting_process in
  let seq2 =
    B.Process.make ~name:"t" ~party:"A" ~registry:reg
      (Act.seq "root"
         [
           Act.seq "two"
             [
               Act.receive ~partner:"B" ~op:"orderOp";
               Act.invoke ~partner:"L" ~op:"deliverOp";
             ];
         ])
  in
  let par = Ops.apply_exn (Ops.Parallelize { path = [ 0 ] }) seq2 in
  let w = List.map C.Label.of_string_exn in
  check_bool "interleaving allowed" true
    (C.Trace.accepts (gen par) (w [ "A#L#deliverOp"; "B#A#orderOp" ]));
  check_bool "original order kept" true
    (C.Trace.accepts (gen par) (w [ "B#A#orderOp"; "A#L#deliverOp" ]));
  (* round trip *)
  let back = Ops.apply_exn (Ops.Serialize { path = [ 0 ] }) par in
  check_bool "serialize restores sequence language" true
    (C.Equiv.equal_language (gen back) (gen seq2));
  check_bool "serialize non-flow fails" true
    (Result.is_error (Ops.apply (Ops.Serialize { path = [ 0 ] }) seq2))

let test_wrap_in_loop () =
  let reg = B.Process.registry P.accounting_process in
  let p =
    B.Process.make ~name:"t" ~party:"A" ~registry:reg
      (Act.seq "root" [ Act.invoke ~partner:"B" ~op:"deliveryOp" ])
  in
  let p' =
    Ops.apply_exn (Ops.Wrap_in_loop { path = [ 0 ]; name = "again"; cond = "more?" }) p
  in
  let w = List.map C.Label.of_string_exn in
  check_bool "twice" true
    (C.Trace.accepts (gen p') (w [ "A#B#deliveryOp"; "A#B#deliveryOp" ]));
  check_bool "zero times" true (C.Trace.accepts (gen p') [])

let test_rename_block () =
  let op = Ops.Rename_block { path = []; name = "renamed" } in
  let p' = Ops.apply_exn op P.buyer_process in
  check_bool "publicly invisible" true
    (Cl.public_unchanged ~old_public:(gen P.buyer_process) ~new_public:(gen p') ());
  let _, tbl = C.Public_gen.generate p' in
  check_bool "table follows the rename" true
    (List.exists
       (fun (e : C.Table.entry) -> String.equal e.block "Sequence:renamed")
       (C.Table.entries tbl 0));
  check_bool "cannot rename a basic activity" true
    (Result.is_error (Ops.apply (Ops.Rename_block { path = [ 0 ]; name = "x" }) P.buyer_process))

(* ---------------------------- framework ---------------------------- *)

let test_framework_additive () =
  let old_public = C.View.tau ~observer:"B" (gen P.accounting_process) in
  let new_public = C.View.tau ~observer:"B" (gen P.accounting_cancel) in
  let f = Cl.framework ~old_public ~new_public () in
  check_bool "additive" true f.Cl.additive;
  check_bool "not subtractive" false f.Cl.subtractive

let test_framework_subtractive () =
  let old_public = C.View.tau ~observer:"B" (gen P.accounting_process) in
  let new_public = C.View.tau ~observer:"B" (gen P.accounting_once) in
  let f = Cl.framework ~old_public ~new_public () in
  check_bool "subtractive" true f.Cl.subtractive;
  check_bool "not additive" false f.Cl.additive

let test_framework_neutral () =
  let pub = C.View.tau ~observer:"B" (gen P.accounting_process) in
  let f = Cl.framework ~old_public:pub ~new_public:pub () in
  check_bool "neither" true ((not f.Cl.additive) && not f.Cl.subtractive)

let test_framework_both () =
  (* replace one message by another: adds and removes *)
  let a = A.of_strings ~start:0 ~finals:[ 1 ] ~edges:[ (0, "A#B#x", 1) ] () in
  let b = A.of_strings ~start:0 ~finals:[ 1 ] ~edges:[ (0, "A#B#y", 1) ] () in
  let f = Cl.framework ~old_public:a ~new_public:b () in
  check_bool "additive" true f.Cl.additive;
  check_bool "subtractive" true f.Cl.subtractive

(* --------------------------- propagation --------------------------- *)

let test_invariant_additive_fig10 () =
  let v =
    Cl.classify ~owner:"A" ~partner:"B"
      ~old_public:(gen P.accounting_process)
      ~new_public:(gen P.accounting_order2)
      ~partner_public:(gen P.buyer_process)
      ()
  in
  check_bool "additive" true v.Cl.framework.Cl.additive;
  check_bool "invariant" true (v.Cl.propagation = Cl.Invariant);
  check_bool "no propagation" false (Cl.requires_propagation v)

let test_variant_additive_fig12 () =
  let v =
    Cl.classify ~owner:"A" ~partner:"B"
      ~old_public:(gen P.accounting_process)
      ~new_public:(gen P.accounting_cancel)
      ~partner_public:(gen P.buyer_process)
      ()
  in
  check_bool "additive" true v.Cl.framework.Cl.additive;
  check_bool "variant" true (v.Cl.propagation = Cl.Variant);
  check_bool "propagation required" true (Cl.requires_propagation v)

let test_variant_subtractive_fig16 () =
  let v =
    Cl.classify ~owner:"A" ~partner:"B"
      ~old_public:(gen P.accounting_process)
      ~new_public:(gen P.accounting_once)
      ~partner_public:(gen P.buyer_process)
      ()
  in
  check_bool "subtractive" true v.Cl.framework.Cl.subtractive;
  check_bool "variant" true (v.Cl.propagation = Cl.Variant)

let test_logistics_invariant_for_both_changes () =
  (* the cancel and tracking-limit changes do not break logistics *)
  List.iter
    (fun changed ->
      let v =
        Cl.classify ~owner:"A" ~partner:"L"
          ~old_public:(gen P.accounting_process)
          ~new_public:(gen changed)
          ~partner_public:(gen P.logistics_process)
          ()
      in
      check_bool "invariant for L" true (v.Cl.propagation = Cl.Invariant))
    [ P.accounting_cancel; P.accounting_once ]

let test_public_unchanged_for_local_change () =
  (* inserting an assign is invisible publicly *)
  let changed =
    Ops.apply_exn
      (Ops.Insert_activity { path = []; pos = 0; act = Act.Assign "log" })
      P.accounting_process
  in
  check_bool "public unchanged" true
    (Cl.public_unchanged
       ~old_public:(gen P.accounting_process)
       ~new_public:(gen changed) ());
  check_bool "public changed for cancel" false
    (Cl.public_unchanged
       ~old_public:(gen P.accounting_process)
       ~new_public:(gen P.accounting_cancel) ())

let () =
  Alcotest.run "change"
    [
      ( "apply",
        [
          Alcotest.test_case "insert" `Quick test_apply_insert;
          Alcotest.test_case "delete" `Quick test_apply_delete;
          Alcotest.test_case "receive→pick = fig14" `Quick
            test_apply_receive_to_pick;
          Alcotest.test_case "compound" `Quick test_apply_compound;
          Alcotest.test_case "compound atomic" `Quick test_apply_compound_atomic;
          Alcotest.test_case "errors" `Quick test_apply_errors;
        ] );
      ( "shift/structure",
        [
          Alcotest.test_case "move" `Quick test_move_activity;
          Alcotest.test_case "swap" `Quick test_swap_activities;
          Alcotest.test_case "parallelize/serialize" `Quick
            test_parallelize_serialize;
          Alcotest.test_case "wrap in loop" `Quick test_wrap_in_loop;
          Alcotest.test_case "rename block" `Quick test_rename_block;
        ] );
      ( "framework (Def 5)",
        [
          Alcotest.test_case "additive" `Quick test_framework_additive;
          Alcotest.test_case "subtractive" `Quick test_framework_subtractive;
          Alcotest.test_case "neutral" `Quick test_framework_neutral;
          Alcotest.test_case "both" `Quick test_framework_both;
        ] );
      ( "propagation (Def 6)",
        [
          Alcotest.test_case "invariant additive (Fig 10)" `Quick
            test_invariant_additive_fig10;
          Alcotest.test_case "variant additive (Fig 12)" `Quick
            test_variant_additive_fig12;
          Alcotest.test_case "variant subtractive (Fig 16)" `Quick
            test_variant_subtractive_fig16;
          Alcotest.test_case "logistics invariant" `Quick
            test_logistics_invariant_for_both_changes;
          Alcotest.test_case "public (un)changed" `Quick
            test_public_unchanged_for_local_change;
        ] );
    ]
