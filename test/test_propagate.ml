(* Propagation of variant changes (Sec. 5.2 / 5.3): localization,
   suggestions, and the full engine reproducing Figs. 13, 14, 17, 18. *)

module C = Chorev
module A = C.Afsa
module B = C.Bpel
module L = C.Propagate.Localize
module S = C.Propagate.Suggest
module E = C.Propagate.Engine
module P = C.Scenario.Procurement

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let gen = C.Public_gen.public
let lbl = C.Label.of_string_exn

(* ---------------------------- localize ----------------------------- *)

let test_localize_additive () =
  let b, tbl = C.Public_gen.generate P.buyer_process in
  let view = C.View.tau ~observer:"B" (gen P.accounting_cancel) in
  let delta = C.Ops.difference view b in
  let target = A.trim (C.Ops.union delta b) in
  let divs = L.diverge ~old_public:b ~new_public:target ~table:tbl in
  check_int "one divergence" 1 (List.length divs);
  let d = List.hd divs in
  (* paper: the change becomes visible at state 2 (1-based) = our 1 *)
  check_int "at state 1 (paper's state 2)" 1 d.L.state_b;
  Alcotest.(check (list string))
    "missing = cancelOp" [ "A#B#cancelOp" ]
    (List.map C.Label.to_string d.L.missing);
  check_bool "anchored in buyer process block" true
    (match d.L.anchors with
    | e :: _ -> String.equal e.C.Table.block "Sequence:buyer process"
    | [] -> false)

let test_localize_subtractive () =
  let b, tbl = C.Public_gen.generate P.buyer_process in
  let view = C.View.tau ~observer:"B" (gen P.accounting_once) in
  let removed = C.Ops.difference b view in
  let target = A.trim (C.Ops.difference b removed) in
  let divs = L.diverge ~old_public:b ~new_public:target ~table:tbl in
  check_bool "has divergence" true (divs <> []);
  let d = List.hd divs in
  check_int "at loop head (paper's state 3)" 2 d.L.state_b;
  Alcotest.(check (list string))
    "removed = get_statusOp" [ "B#A#get_statusOp" ]
    (List.map C.Label.to_string d.L.removed);
  check_bool "While:tracking among anchors" true
    (List.exists
       (fun (e : C.Table.entry) -> String.equal e.block "While:tracking")
       d.L.anchors)

let test_localize_no_divergence () =
  let b, tbl = C.Public_gen.generate P.buyer_process in
  let divs = L.diverge ~old_public:b ~new_public:b ~table:tbl in
  check_int "none" 0 (List.length divs)

(* ---------------------------- suggest ------------------------------ *)

let test_suggest_additive_receive_to_pick () =
  let o =
    E.run
      ~config:{ C.Config.default with auto_apply = false }
      ~direction:E.Additive
      ~a':(gen P.accounting_cancel) ~partner_private:P.buyer_process ()
  in
  check_bool "has suggestions" true (o.E.analysis.E.suggestions <> []);
  (* the preferred (first) suggestion is the paper's Fig. 14 edit *)
  match o.E.analysis.E.suggestions with
  | S.Apply { op = C.Change.Ops.Receive_to_pick { path; arms; _ }; _ } :: _ ->
      Alcotest.(check (list int)) "receive path" [ 1 ] path;
      check_int "one new arm" 1 (List.length arms);
      let (c, body) = List.hd arms in
      Alcotest.(check string) "arm op" "cancelOp" c.B.Activity.op;
      check_bool "arm terminates" true (body = B.Activity.Terminate)
  | _ -> Alcotest.fail "expected a receive→pick suggestion"

let test_suggest_subtractive_unroll () =
  let o =
    E.run
      ~config:{ C.Config.default with auto_apply = false }
      ~direction:E.Subtractive
      ~a':(gen P.accounting_once) ~partner_private:P.buyer_process ()
  in
  check_bool "has applicable suggestion" true
    (List.exists (fun s -> not (S.is_manual s)) o.E.analysis.E.suggestions);
  match List.find (fun s -> not (S.is_manual s)) o.E.analysis.E.suggestions with
  | S.Apply { op = C.Change.Ops.Unroll_loop_once { path; _ }; _ } ->
      Alcotest.(check (list int)) "loop path" [ 2 ] path
  | _ -> Alcotest.fail "expected an unroll suggestion"

let test_manual_suggestions_apply_as_noop () =
  let s = S.Manual "do something" in
  check_bool "manual" true (S.is_manual s);
  (match S.apply s P.buyer_process with
  | Ok p -> check_bool "no-op" true (p == P.buyer_process)
  | Error _ -> Alcotest.fail "manual apply must not fail");
  check_bool "describe mentions manual" true
    (String.length (S.describe s) > String.length "do something")

(* ----------------------------- engine ------------------------------ *)

let test_engine_additive_end_to_end () =
  let o =
    E.run ~direction:E.Additive ~a':(gen P.accounting_cancel)
      ~partner_private:P.buyer_process ()
  in
  check_bool "adapted" true (Option.is_some o.E.adapted);
  check_bool "consistent after" true o.E.consistent_after;
  (* Fig. 14: adapted buyer equals the paper's, up to language *)
  check_bool "fig14 language" true
    (C.Equiv.equal_language
       (Option.get o.E.adapted_public)
       (gen P.buyer_with_cancel));
  (* Fig. 13a: the delta contains the cancel conversation *)
  check_bool "delta has cancel" true
    (C.Trace.accepts o.E.analysis.E.delta
       [ lbl "B#A#orderOp"; lbl "A#B#cancelOp" ])

let test_engine_subtractive_end_to_end () =
  let o =
    E.run ~direction:E.Subtractive ~a':(gen P.accounting_once)
      ~partner_private:P.buyer_process ()
  in
  check_bool "adapted" true (Option.is_some o.E.adapted);
  check_bool "consistent after" true o.E.consistent_after;
  check_bool "fig18 language" true
    (C.Equiv.equal_language (Option.get o.E.adapted_public) (gen P.buyer_once));
  (* Fig. 17a: two tracking rounds are in the removed sequences *)
  check_bool "removed contains double tracking" true
    (C.Trace.accepts o.E.analysis.E.delta
       [
         lbl "B#A#orderOp";
         lbl "A#B#deliveryOp";
         lbl "B#A#get_statusOp";
         lbl "A#B#statusOp";
         lbl "B#A#get_statusOp";
         lbl "A#B#statusOp";
         lbl "B#A#terminateOp";
       ]);
  (* Fig. 17b: the target allows at most one round *)
  check_bool "target one round ok" true
    (C.Trace.accepts o.E.analysis.E.target_public
       [
         lbl "B#A#orderOp";
         lbl "A#B#deliveryOp";
         lbl "B#A#get_statusOp";
         lbl "A#B#statusOp";
         lbl "B#A#terminateOp";
       ]);
  check_bool "target two rounds gone" false
    (C.Trace.accepts o.E.analysis.E.target_public
       [
         lbl "B#A#orderOp";
         lbl "A#B#deliveryOp";
         lbl "B#A#get_statusOp";
         lbl "A#B#statusOp";
         lbl "B#A#get_statusOp";
         lbl "A#B#statusOp";
         lbl "B#A#terminateOp";
       ])

let test_engine_no_auto_apply () =
  let o =
    E.run
      ~config:{ C.Config.default with auto_apply = false }
      ~direction:E.Additive
      ~a':(gen P.accounting_cancel) ~partner_private:P.buyer_process ()
  in
  check_bool "not adapted" true (o.E.adapted = None);
  check_bool "analysis delivered" true (o.E.analysis.E.suggestions <> []);
  check_bool "inconsistent before adaptation" false o.E.consistent_after

let test_engine_invariant_change_trivial () =
  (* propagating an invariant change: no divergence that matters; the
     engine still reports consistency *)
  let o =
    E.run ~direction:E.Additive ~a':(gen P.accounting_order2)
      ~partner_private:P.buyer_process ()
  in
  check_bool "consistent (was already)" true o.E.consistent_after

let test_engine_skeleton_fallback () =
  (* the partner has no loop to unroll and no pick anchor for the
     targeted rules — only the re-synthesis fallback can adapt it *)
  let reg =
    B.Types.registry
      [
        ( "Q",
          {
            B.Types.pt_name = "q";
            ops = [ B.Types.async "xOp"; B.Types.async "yOp" ];
          } );
        ("R", { B.Types.pt_name = "r"; ops = [] });
      ]
  in
  let partner =
    B.Process.make ~name:"partner" ~party:"Q" ~registry:reg
      (B.Activity.seq "root"
         [
           B.Activity.pick "pk"
             [
               B.Activity.on_message ~partner:"R" ~op:"xOp" B.Activity.Empty;
               B.Activity.on_message ~partner:"R" ~op:"yOp" B.Activity.Empty;
             ];
         ])
  in
  (* the originator now only ever sends x — a subtractive change *)
  let a' =
    C.Afsa.of_strings ~start:0 ~finals:[ 1 ] ~edges:[ (0, "R#Q#xOp", 1) ] ()
  in
  let o =
    E.run ~direction:E.Subtractive ~a' ~partner_private:partner ()
  in
  check_bool "suggestions are manual only" true
    (List.for_all S.is_manual o.E.analysis.E.suggestions);
  check_bool "adapted via re-synthesis" true (Option.is_some o.E.adapted);
  check_bool "consistent after" true o.E.consistent_after

(* The last resort on a generated tenant: seed 16 of the served-script
   corpus (partner of [Gen_process.pair ~seed:16] facing the owner
   replacement [Gen_process.pair ~seed:(42 + 7919 * 17)], additive).
   Every targeted retry set fails, so the engine resynthesizes the
   partner from the target public process. The old tree-shaped
   synthesizer built 183 activities for this 35-state, 43-edge target;
   emitting each shared continuation once keeps it within
   2 (states + edges). *)
let resynthesized_case () =
  let _, partner = C.Workload.Gen_process.pair ~seed:16 () in
  let owner, _ = C.Workload.Gen_process.pair ~seed:(42 + (7919 * 17)) () in
  (partner, gen owner)

let test_engine_resynthesizes_compactly () =
  let partner, a' = resynthesized_case () in
  let o = E.run ~direction:E.Additive ~a' ~partner_private:partner () in
  let p = Option.get o.E.adapted in
  check_bool "adapted by resynthesis" true
    (Filename.check_suffix (B.Process.name p) "-resynthesized");
  check_bool "consistent after" true o.E.consistent_after;
  check_bool "adapted public re-checks consistent" true
    (C.Consistency.consistent (Option.get o.E.adapted_public)
       o.E.analysis.E.view_new);
  let t = o.E.analysis.E.target_public in
  let bound = 2 * (A.num_states t + A.num_edges t) in
  check_bool
    (Printf.sprintf "%d activities within 2 (states + edges) = %d"
       (B.Process.size p) bound)
    true
    (B.Process.size p <= bound)

let test_direction_of_framework () =
  let f_add =
    C.Change.Classify.framework
      ~old_public:(C.View.tau ~observer:"B" (gen P.accounting_process))
      ~new_public:(C.View.tau ~observer:"B" (gen P.accounting_cancel))
      ()
  in
  check_bool "additive dir" true (E.direction_of_framework f_add = E.Additive);
  let f_sub =
    C.Change.Classify.framework
      ~old_public:(C.View.tau ~observer:"B" (gen P.accounting_process))
      ~new_public:(C.View.tau ~observer:"B" (gen P.accounting_once))
      ()
  in
  check_bool "subtractive dir" true
    (E.direction_of_framework f_sub = E.Subtractive)

let () =
  Alcotest.run "propagate"
    [
      ( "localize",
        [
          Alcotest.test_case "additive (Fig 13)" `Quick test_localize_additive;
          Alcotest.test_case "subtractive (Fig 17)" `Quick
            test_localize_subtractive;
          Alcotest.test_case "no divergence" `Quick test_localize_no_divergence;
        ] );
      ( "suggest",
        [
          Alcotest.test_case "additive receive→pick" `Quick
            test_suggest_additive_receive_to_pick;
          Alcotest.test_case "subtractive unroll" `Quick
            test_suggest_subtractive_unroll;
          Alcotest.test_case "manual no-op" `Quick
            test_manual_suggestions_apply_as_noop;
        ] );
      ( "engine",
        [
          Alcotest.test_case "additive end-to-end (Figs 13-14)" `Quick
            test_engine_additive_end_to_end;
          Alcotest.test_case "subtractive end-to-end (Figs 17-18)" `Quick
            test_engine_subtractive_end_to_end;
          Alcotest.test_case "no auto apply" `Quick test_engine_no_auto_apply;
          Alcotest.test_case "invariant trivial" `Quick
            test_engine_invariant_change_trivial;
          Alcotest.test_case "direction" `Quick test_direction_of_framework;
          Alcotest.test_case "skeleton fallback" `Quick
            test_engine_skeleton_fallback;
          Alcotest.test_case "compact resynthesis" `Quick
            test_engine_resynthesizes_compactly;
        ] );
    ]
