(* Multi-party choreography model, the Fig. 4 evolution pipeline, and
   the decentralized consistency protocol. *)

module C = Chorev
module M = C.Choreography.Model
module Cons = C.Choreography.Consistency
module Ev = C.Choreography.Evolution
module Pr = C.Choreography.Protocol
module P = C.Scenario.Procurement

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let procurement () = M.of_processes (List.map snd P.parties)

let ok_exn = function
  | Ok v -> v
  | Error (`Unknown_party p) -> failwith ("unknown party " ^ p)

let evolve ?config t ~owner ~changed = ok_exn (Ev.run ?config t ~owner ~changed)

(* ------------------------------ model ------------------------------ *)

let test_model_basics () =
  let t = procurement () in
  Alcotest.(check (list string)) "parties" [ "A"; "B"; "L" ] (M.parties t);
  check_bool "member" true (M.member t "A" <> None);
  check_bool "unknown member" true (M.member t "X" = None);
  check_bool "interact A B" true (M.interact t "A" "B");
  check_bool "interact A L" true (M.interact t "A" "L");
  check_bool "B and L do not interact" false (M.interact t "B" "L");
  check_int "pairs" 2 (List.length (M.pairs t))

let test_model_duplicate_party_rejected () =
  check_bool "duplicate raises" true
    (try
       ignore (M.of_processes [ P.buyer_process; P.buyer_process ]);
       false
     with Invalid_argument _ -> true)

let test_model_update () =
  let t = procurement () in
  let t' = M.update t P.accounting_cancel in
  check_bool "public changed" false
    (C.Equiv.equal_language (M.public t "A") (M.public t' "A"));
  check_bool "others untouched" true
    (C.Equiv.equal_language (M.public t "B") (M.public t' "B"))

(* --------------------------- consistency --------------------------- *)

let test_consistency_all () =
  let t = procurement () in
  check_bool "consistent" true (Cons.consistent t);
  let verdicts = Cons.check_all t in
  check_int "two pairs checked" 2 (List.length verdicts);
  List.iter
    (fun v ->
      check_bool "pair consistent" true v.Cons.consistent;
      check_bool "witness exists" true (v.Cons.witness <> None))
    verdicts

let test_consistency_broken_by_uncontrolled_change () =
  (* applying the cancel change without propagation breaks B *)
  let t = M.update (procurement ()) P.accounting_cancel in
  check_bool "now inconsistent" false (Cons.consistent t);
  check_bool "A-B pair broken" false (ok_exn (Cons.consistent_pair t "A" "B"));
  check_bool "A-L pair fine" true (ok_exn (Cons.consistent_pair t "A" "L"))

let test_agreed_protocol () =
  let t = procurement () in
  let p = ok_exn (Cons.protocol t "A" "B") in
  check_bool "nonempty" true (C.Emptiness.is_nonempty p);
  check_bool "contains the happy conversation" true
    (C.Trace.accepts p
       (List.map C.Label.of_string_exn
          [ "B#A#orderOp"; "A#B#deliveryOp"; "B#A#terminateOp" ]));
  (* only bilateral labels *)
  check_bool "bilateral alphabet" true
    (List.for_all (C.Label.involves "B") (C.Afsa.alphabet p));
  (* after an uncontrolled variant change the protocol is empty *)
  let t' = M.update t P.accounting_cancel in
  check_bool "broken protocol empty" true
    (C.Emptiness.is_empty (ok_exn (Cons.protocol t' "A" "B")))

(* ---------------------------- evolution ---------------------------- *)

let test_evolution_additive () =
  let t = procurement () in
  let rep = evolve t ~owner:"A" ~changed:P.accounting_cancel in
  check_bool "consistent after" true rep.Ev.consistent;
  let r0 = List.hd rep.Ev.rounds in
  check_bool "public changed" true r0.Ev.public_changed;
  check_int "two partners" 2 (List.length r0.Ev.partners);
  let b = List.find (fun p -> p.Ev.partner = "B") r0.Ev.partners in
  check_bool "B variant" true
    (C.Change.Classify.requires_propagation b.Ev.verdict);
  let l = List.find (fun p -> p.Ev.partner = "L") r0.Ev.partners in
  check_bool "L invariant" false
    (C.Change.Classify.requires_propagation l.Ev.verdict);
  (* evolved buyer equals fig 14 up to language *)
  check_bool "B adapted to fig14" true
    (C.Equiv.equal_language
       (M.public rep.Ev.choreography "B")
       (C.Public_gen.public P.buyer_with_cancel))

let test_evolution_subtractive () =
  let t = procurement () in
  let rep = evolve t ~owner:"A" ~changed:P.accounting_once in
  check_bool "consistent after" true rep.Ev.consistent;
  check_bool "B adapted to fig18" true
    (C.Equiv.equal_language
       (M.public rep.Ev.choreography "B")
       (C.Public_gen.public P.buyer_once))

let test_evolution_local_change_stops_early () =
  let t = procurement () in
  let changed =
    C.Change.Ops.apply_exn
      (C.Change.Ops.Insert_activity
         { path = []; pos = 0; act = C.Bpel.Activity.Assign "log" })
      P.accounting_process
  in
  let rep = evolve t ~owner:"A" ~changed in
  check_int "one round" 1 (List.length rep.Ev.rounds);
  check_bool "no public change" false (List.hd rep.Ev.rounds).Ev.public_changed;
  check_bool "still consistent" true rep.Ev.consistent

let test_evolution_no_auto_apply () =
  let t = procurement () in
  let rep =
    evolve
      ~config:{ C.Config.default with auto_apply = false }
      t ~owner:"A" ~changed:P.accounting_cancel
  in
  (* without adaptation the choreography stays inconsistent *)
  check_bool "inconsistent" false rep.Ev.consistent;
  let r0 = List.hd rep.Ev.rounds in
  let b = List.find (fun p -> p.Ev.partner = "B") r0.Ev.partners in
  check_bool "suggestions available" true
    (match b.Ev.outcome with
    | Some o -> o.C.Propagate.Engine.analysis.C.Propagate.Engine.suggestions <> []
    | None -> false)

let test_dry_run () =
  let t = procurement () in
  (* variant change: B flagged with suggestions, nothing applied *)
  let reports = ok_exn (Ev.dry_run t ~owner:"A" ~changed:P.accounting_cancel) in
  check_int "two partners" 2 (List.length reports);
  let b = List.find (fun r -> r.Ev.partner = "B") reports in
  check_bool "B variant" true (C.Change.Classify.requires_propagation b.Ev.verdict);
  (match b.Ev.outcome with
  | Some o ->
      check_bool "suggestions present" true
        (o.C.Propagate.Engine.analysis.C.Propagate.Engine.suggestions <> []);
      check_bool "nothing applied" true (o.C.Propagate.Engine.adapted = None)
  | None -> Alcotest.fail "expected analysis");
  (* the choreography itself is untouched *)
  check_bool "still consistent" true (Cons.consistent t);
  (* local change: empty report *)
  let local =
    C.Change.Ops.apply_exn
      (C.Change.Ops.Insert_activity
         { path = []; pos = 0; act = C.Bpel.Activity.Assign "x" })
      P.accounting_process
  in
  check_int "local change: no reports" 0
    (List.length (ok_exn (Ev.dry_run t ~owner:"A" ~changed:local)))

let test_run_op () =
  let t = procurement () in
  match
    Ev.run_op t ~owner:"B"
      (C.Change.Ops.Insert_activity
         { path = []; pos = 0; act = C.Bpel.Activity.Assign "note" })
  with
  | Ok rep -> check_bool "consistent" true rep.Ev.consistent
  | Error (`Op e) -> Alcotest.fail e
  | Error (`Unknown_party p) -> Alcotest.fail ("unknown party " ^ p)

let test_unknown_party_total () =
  let t = procurement () in
  check_bool "find_party unknown" true
    (M.find_party t "X" = Error (`Unknown_party "X"));
  check_bool "find_party known" true
    (match M.find_party t "A" with Ok _ -> true | Error _ -> false);
  check_bool "run rejects unknown owner" true
    (match Ev.run t ~owner:"X" ~changed:P.accounting_cancel with
    | Error (`Unknown_party "X") -> true
    | _ -> false);
  check_bool "dry_run rejects unknown owner" true
    (match Ev.dry_run t ~owner:"X" ~changed:P.accounting_cancel with
    | Error (`Unknown_party "X") -> true
    | _ -> false);
  check_bool "run_op rejects unknown owner" true
    (match
       Ev.run_op t ~owner:"X"
         (C.Change.Ops.Insert_activity
            { path = []; pos = 0; act = C.Bpel.Activity.Assign "note" })
     with
    | Error (`Unknown_party "X") -> true
    | _ -> false);
  check_bool "check_pair rejects unknown party" true
    (match Cons.check_pair t "A" "X" with
    | Error (`Unknown_party "X") -> true
    | _ -> false);
  check_bool "protocol rejects unknown party" true
    (match Cons.protocol t "X" "B" with
    | Error (`Unknown_party "X") -> true
    | _ -> false)

(* The config-record entry points are the only API: one shared
   [Chorev.Config] record configures the engine and the pipeline, and
   unknown parties come back as typed errors, never exceptions. *)
let test_config_entry_points () =
  let t = procurement () in
  let config = C.Config.default in
  (match Ev.run ~config t ~owner:"A" ~changed:P.accounting_cancel with
  | Ok rep -> check_bool "run with config consistent" true rep.Ev.consistent
  | Error (`Unknown_party p) -> Alcotest.fail ("unknown party " ^ p));
  check_bool "run rejects unknown party" true
    (match Ev.run ~config t ~owner:"X" ~changed:P.accounting_cancel with
    | Error (`Unknown_party "X") -> true
    | _ -> false);
  let o =
    C.Propagate.Engine.run
      ~config:{ C.Config.default with auto_apply = true }
      ~direction:C.Propagate.Engine.Additive
      ~a':(C.Public_gen.public P.accounting_cancel)
      ~partner_private:P.buyer_process ()
  in
  check_bool "engine run with shared config adapted" true
    (Option.is_some o.C.Propagate.Engine.adapted)

(* ----------------------------- protocol ---------------------------- *)

let test_protocol_invariant_change () =
  let t = procurement () in
  let r = Pr.run t ~owner:"A" ~changed:P.accounting_order2 in
  check_bool "agreed" true r.Pr.agreed;
  check_bool "no nacks" true (r.Pr.stats.Pr.nacks = 0);
  check_bool "announcements to both partners" true
    (r.Pr.stats.Pr.announcements >= 2)

let test_protocol_variant_change () =
  let t = procurement () in
  let r = Pr.run t ~owner:"A" ~changed:P.accounting_cancel in
  check_bool "agreed after adaptation" true r.Pr.agreed;
  check_bool "at least one nack" true (r.Pr.stats.Pr.nacks >= 1);
  check_bool "final consistent" true
    (C.Choreography.Consistency.consistent r.Pr.final)

let test_protocol_no_adaptation () =
  let t = procurement () in
  let r = Pr.run ~adapt:false t ~owner:"A" ~changed:P.accounting_cancel in
  check_bool "no agreement" false r.Pr.agreed;
  check_bool "nacked" true (r.Pr.stats.Pr.nacks >= 1)

let test_protocol_message_economy () =
  (* only public processes travel; stats stay small for the scenario *)
  let t = procurement () in
  let r = Pr.run t ~owner:"A" ~changed:P.accounting_cancel in
  check_bool "bounded messages" true (r.Pr.stats.Pr.messages <= 20);
  check_bool "bounded rounds" true (r.Pr.stats.Pr.rounds <= 16)

let test_protocol_lonely_owner () =
  (* an owner with no interacting partners announces to nobody and
     trivially agrees *)
  let t = M.of_processes [ P.accounting_process ] in
  let r = Pr.run t ~owner:"A" ~changed:P.accounting_cancel in
  check_bool "agreed" true r.Pr.agreed;
  check_int "no messages" 0 r.Pr.stats.Pr.messages;
  check_int "no announcements" 0 r.Pr.stats.Pr.announcements;
  check_bool "change applied" false
    (C.Equiv.equal_language (M.public t "A") (M.public r.Pr.final "A"))

let test_protocol_no_adaptation_preserves_partner () =
  (* a nacking partner that refuses to adapt keeps its processes *)
  let t = procurement () in
  let r = Pr.run ~adapt:false t ~owner:"A" ~changed:P.accounting_cancel in
  check_bool "no agreement" false r.Pr.agreed;
  check_bool "B public untouched" true
    (C.Equiv.equal_language (M.public t "B") (M.public r.Pr.final "B"));
  check_bool "L still acks the invariant view" true (r.Pr.stats.Pr.acks >= 1);
  check_bool "owner change still applied" false
    (C.Equiv.equal_language (M.public t "A") (M.public r.Pr.final "A"))

let test_protocol_max_rounds_exhaustion () =
  let t = procurement () in
  (* zero rounds: announcements are queued but never processed *)
  let r0 = Pr.run ~max_rounds:0 t ~owner:"A" ~changed:P.accounting_cancel in
  check_int "rounds" 0 r0.Pr.stats.Pr.rounds;
  check_int "only the initial announcements" 2 r0.Pr.stats.Pr.announcements;
  check_int "no replies" 0 (r0.Pr.stats.Pr.acks + r0.Pr.stats.Pr.nacks);
  check_bool "not agreed" false r0.Pr.agreed;
  (* one round is enough for B's adaptation but cuts off the replies to
     its re-announcement *)
  let r1 = Pr.run ~max_rounds:1 t ~owner:"A" ~changed:P.accounting_cancel in
  check_int "one round" 1 r1.Pr.stats.Pr.rounds;
  check_bool "B adapted within the round" true r1.Pr.agreed;
  let full = Pr.run t ~owner:"A" ~changed:P.accounting_cancel in
  check_bool "cut short of the full exchange" true
    (r1.Pr.stats.Pr.messages < full.Pr.stats.Pr.messages)

let () =
  Alcotest.run "choreography"
    [
      ( "model",
        [
          Alcotest.test_case "basics" `Quick test_model_basics;
          Alcotest.test_case "duplicate party" `Quick
            test_model_duplicate_party_rejected;
          Alcotest.test_case "update" `Quick test_model_update;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "all pairs" `Quick test_consistency_all;
          Alcotest.test_case "uncontrolled change breaks" `Quick
            test_consistency_broken_by_uncontrolled_change;
          Alcotest.test_case "agreed protocol" `Quick test_agreed_protocol;
        ] );
      ( "evolution (Fig 4)",
        [
          Alcotest.test_case "additive cancel" `Quick test_evolution_additive;
          Alcotest.test_case "subtractive tracking" `Quick
            test_evolution_subtractive;
          Alcotest.test_case "local change stops early" `Quick
            test_evolution_local_change_stops_early;
          Alcotest.test_case "no auto-apply" `Quick test_evolution_no_auto_apply;
          Alcotest.test_case "run_op" `Quick test_run_op;
          Alcotest.test_case "unknown party is total" `Quick
            test_unknown_party_total;
          Alcotest.test_case "config entry points" `Quick
            test_config_entry_points;
          Alcotest.test_case "dry run" `Quick test_dry_run;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "invariant" `Quick test_protocol_invariant_change;
          Alcotest.test_case "variant" `Quick test_protocol_variant_change;
          Alcotest.test_case "no adaptation" `Quick test_protocol_no_adaptation;
          Alcotest.test_case "message economy" `Quick
            test_protocol_message_economy;
          Alcotest.test_case "lonely owner" `Quick test_protocol_lonely_owner;
          Alcotest.test_case "no adaptation preserves partner" `Quick
            test_protocol_no_adaptation_preserves_partner;
          Alcotest.test_case "max_rounds exhaustion" `Quick
            test_protocol_max_rounds_exhaustion;
        ] );
    ]
