(* Dynamic instance migration (the paper's Sec. 8 outlook): replay,
   compliance, dispositions and version coexistence. *)

module C = Chorev
module I = C.Migration.Instance
module Cp = C.Migration.Compliance
module V = C.Migration.Versions
module P = C.Scenario.Procurement

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let l = C.Label.of_string_exn
let gen = C.Public_gen.public

let buyer_pub = gen P.buyer_process
let cancel_view = C.View.tau ~observer:"B" (gen P.accounting_cancel)
let buyer_cancel_pub = gen P.buyer_with_cancel
let buyer_once_pub = gen P.buyer_once

(* ----------------------------- instance ---------------------------- *)

let test_replay () =
  let i = I.make ~id:"i1" ~trace:[ l "B#A#orderOp"; l "A#B#deliveryOp" ] () in
  (match I.replay buyer_pub i with
  | Ok set -> check_int "one reached state" 1 (C.Afsa.ISet.cardinal set)
  | Error _ -> Alcotest.fail "trace must replay");
  let bad = I.make ~id:"i2" ~trace:[ l "A#B#deliveryOp" ] () in
  (match I.replay buyer_pub bad with
  | Error 0 -> ()
  | _ -> Alcotest.fail "expected failure at offset 0");
  check_bool "valid" true (I.valid buyer_pub i);
  check_bool "invalid" false (I.valid buyer_pub bad)

let test_completed () =
  let full =
    I.make ~id:"i3"
      ~trace:[ l "B#A#orderOp"; l "A#B#deliveryOp"; l "B#A#terminateOp" ]
      ()
  in
  check_bool "completed" true (I.completed buyer_pub full);
  let half = I.make ~id:"i4" ~trace:[ l "B#A#orderOp" ] () in
  check_bool "not completed" false (I.completed buyer_pub half)

let test_extend_sample () =
  let i = I.make ~id:"i5" () in
  let i = I.extend i (l "B#A#orderOp") in
  check_int "length" 1 (I.length i);
  for seed = 0 to 9 do
    let s = I.sample buyer_pub ~id:"s" ~seed ~max_len:6 in
    check_bool
      (Printf.sprintf "sample %d valid" seed)
      true (I.valid buyer_pub s)
  done

(* ---------------------------- compliance --------------------------- *)

let test_compliance_fresh_instance_migrates () =
  let i = I.make ~id:"fresh" () in
  check_bool "fresh migratable" true
    (Cp.is_migratable (Cp.check buyer_cancel_pub i))

let test_compliance_mid_flight () =
  (* an instance that already received the delivery replays on the
     cancel-aware buyer process *)
  let i = I.make ~id:"mid" ~trace:[ l "B#A#orderOp"; l "A#B#deliveryOp" ] () in
  check_bool "migratable to fig14 process" true
    (Cp.is_migratable (Cp.check buyer_cancel_pub i));
  (* …but an instance that did two tracking rounds cannot migrate to
     the fig18 (once-only) process *)
  let two_rounds =
    I.make ~id:"two"
      ~trace:
        [
          l "B#A#orderOp"; l "A#B#deliveryOp"; l "B#A#get_statusOp";
          l "A#B#statusOp"; l "B#A#get_statusOp"; l "A#B#statusOp";
        ]
      ()
  in
  (match Cp.check buyer_once_pub two_rounds with
  | Cp.Not_compliant { at = 4; label } ->
      Alcotest.(check string) "offending label" "B#A#get_statusOp"
        (C.Label.to_string label)
  | v -> Alcotest.fail (Fmt.str "expected Not_compliant at 4, got %a" Cp.pp_verdict v));
  (* one round is fine *)
  let one_round =
    I.make ~id:"one"
      ~trace:
        [
          l "B#A#orderOp"; l "A#B#deliveryOp"; l "B#A#get_statusOp";
          l "A#B#statusOp";
        ]
      ()
  in
  check_bool "one round migratable" true
    (Cp.is_migratable (Cp.check buyer_once_pub one_round))

let test_dead_end () =
  (* new process where after "x" the protocol demands an unsupported
     mandatory message *)
  let a =
    C.Afsa.of_strings ~start:0 ~finals:[ 2 ]
      ~edges:[ (0, "A#B#x", 1); (1, "A#B#y", 2) ]
      ~ann:[ (1, C.Formula.var "A#B#z") ]
      ()
  in
  let i = I.make ~id:"d" ~trace:[ l "A#B#x" ] () in
  (match Cp.check a i with
  | Cp.Dead_end _ -> ()
  | v -> Alcotest.fail (Fmt.str "expected Dead_end, got %a" Cp.pp_verdict v))

let test_dispose () =
  let two_rounds =
    I.make ~id:"two"
      ~trace:
        [
          l "B#A#orderOp"; l "A#B#deliveryOp"; l "B#A#get_statusOp";
          l "A#B#statusOp"; l "B#A#get_statusOp"; l "A#B#statusOp";
        ]
      ()
  in
  check_bool "finishes on old" true
    (Cp.dispose ~old_public:buyer_pub ~new_public:buyer_once_pub two_rounds
    = Cp.Finish_on_old);
  let fresh = I.make ~id:"f" () in
  check_bool "fresh migrates" true
    (Cp.dispose ~old_public:buyer_pub ~new_public:buyer_once_pub fresh
    = Cp.Migrate);
  (* an instance invalid on both versions is stuck *)
  let alien = I.make ~id:"a" ~trace:[ l "X#Y#nopeOp" ] () in
  check_bool "alien stuck" true
    (Cp.dispose ~old_public:buyer_pub ~new_public:buyer_once_pub alien
    = Cp.Stuck)

let test_partition () =
  let insts =
    [
      I.make ~id:"fresh" ();
      I.make ~id:"two"
        ~trace:
          [
            l "B#A#orderOp"; l "A#B#deliveryOp"; l "B#A#get_statusOp";
            l "A#B#statusOp"; l "B#A#get_statusOp"; l "A#B#statusOp";
          ]
        ();
    ]
  in
  let yes, no = Cp.partition buyer_once_pub insts in
  check_int "one migratable" 1 (List.length yes);
  check_int "one blocked" 1 (List.length no)

(* ----------------------------- versions ---------------------------- *)

let test_versions_lifecycle () =
  let v = V.create buyer_pub in
  check_int "v1" 1 (V.version_number (V.current v));
  V.start v (I.make ~id:"fresh" ());
  V.start v (I.make ~id:"active" ~trace:[ l "B#A#orderOp" ] ());
  V.start v
    (I.make ~id:"two-rounds"
       ~trace:
         [
           l "B#A#orderOp"; l "A#B#deliveryOp"; l "B#A#get_statusOp";
           l "A#B#statusOp"; l "B#A#get_statusOp"; l "A#B#statusOp";
         ]
       ());
  let rep = V.publish v buyer_once_pub in
  check_int "to v2" 2 rep.V.to_version;
  check_bool "fresh migrated" true (List.mem "fresh" rep.V.migrated);
  check_bool "active migrated" true (List.mem "active" rep.V.migrated);
  check_bool "two-rounds stays" true
    (List.mem_assoc "two-rounds" rep.V.finishing_on_old);
  check_int "no stuck" 0 (List.length rep.V.stuck);
  (* v1 still has its instance: not retirable *)
  check_int "nothing retired" 0 (List.length (V.retire_drained v));
  (* drain it: the remaining v1 instance completes and is removed *)
  check_bool "drained" true (V.remove v ~id:"two-rounds");
  Alcotest.(check (list int)) "v1 retired" [ 1 ] (V.retire_drained v);
  Alcotest.(check (list int)) "only v2 remains" [ 2 ] (V.version_numbers v)

let test_versions_observe () =
  let v = V.create buyer_pub in
  V.start v (I.make ~id:"i" ());
  V.observe v ~id:"i" (l "B#A#orderOp");
  let _, i = List.hd (V.all_instances v) in
  check_int "observed" 1 (I.length i)

(* A new process on which the trace replays but dead-ends (mandatory
   continuation impossible): the disposition depends on the *old*
   version — Finish_on_old when the old one can still complete, Stuck
   when it dead-ends too. *)
let test_dispose_dead_end () =
  let dead =
    C.Afsa.of_strings ~start:0 ~finals:[ 2 ]
      ~edges:[ (0, "A#B#x", 1); (1, "A#B#y", 2) ]
      ~ann:[ (1, C.Formula.var "A#B#z") ]
      ()
  in
  let live =
    C.Afsa.of_strings ~start:0 ~finals:[ 2 ]
      ~edges:[ (0, "A#B#x", 1); (1, "A#B#y", 2) ]
      ()
  in
  let i = I.make ~id:"d" ~trace:[ l "A#B#x" ] () in
  (match Cp.check dead i with
  | Cp.Dead_end _ -> ()
  | v -> Alcotest.fail (Fmt.str "expected Dead_end, got %a" Cp.pp_verdict v));
  check_bool "dead-end on new, live on old: finish there" true
    (Cp.dispose ~old_public:live ~new_public:dead i = Cp.Finish_on_old);
  check_bool "dead-end on both: stuck" true
    (Cp.dispose ~old_public:dead ~new_public:dead i = Cp.Stuck)

(* retire_drained must never retire the current version, even when it
   hosts nothing. *)
let test_retire_keeps_current () =
  let v = V.create buyer_pub in
  Alcotest.(check (list int)) "empty current kept" [] (V.retire_drained v);
  Alcotest.(check (list int)) "v1 still live" [ 1 ] (V.version_numbers v);
  ignore (V.publish v buyer_once_pub);
  (* both versions empty: only the non-current one goes *)
  Alcotest.(check (list int)) "v1 retired" [ 1 ] (V.retire_drained v);
  Alcotest.(check (list int)) "empty v2 survives as current" [ 2 ]
    (V.version_numbers v)

let test_versions_store_ops () =
  let v = V.create buyer_pub in
  V.start v (I.make ~id:"a" ());
  V.start v (I.make ~id:"b" ~trace:[ l "B#A#orderOp" ] ());
  let v2 = V.add_version v buyer_cancel_pub in
  check_int "v2 opened" 2 v2;
  check_int "add_version classifies nothing" 0
    (V.version_count (Option.get (V.find_version v v2)));
  V.start_on v 1 (I.make ~id:"c" ());
  Alcotest.(check (list (pair int int)))
    "counts newest first"
    [ (2, 0); (1, 3) ]
    (V.counts v);
  (match V.find_instance v "b" with
  | Some (1, i) -> check_int "b trace" 1 (I.length i)
  | _ -> Alcotest.fail "find_instance b");
  V.move_instance v ~id:"b" ~to_version:2;
  check_bool "b moved" true (V.find_instance v "b" = Some (2, I.make ~id:"b" ~trace:[ l "B#A#orderOp" ] ()));
  Alcotest.(check (list string))
    "admission order stable under moves"
    [ "a"; "b"; "c" ]
    (List.map (fun (_, i) -> i.I.id) (V.in_admission_order v));
  check_int "instance_count" 3 (V.instance_count v);
  check_bool "remove" true (V.remove v ~id:"a");
  check_bool "remove again" false (V.remove v ~id:"a");
  check_int "after remove" 2 (V.instance_count v)

(* ------------------------ store differential ----------------------- *)

module R = Versions_ref

(* [f ()] or the message of the [Invalid_argument] it raises. *)
let outcome f = match f () with x -> Ok x | exception Invalid_argument e -> Error e

let store_labels =
  [|
    l "B#A#orderOp"; l "A#B#deliveryOp"; l "B#A#get_statusOp";
    l "A#B#statusOp"; l "B#A#terminateOp";
  |]

(* Every observable of both stores, compared after an operation. *)
let check_stores ~what ids a b =
  let same name x y = check_bool (Printf.sprintf "%s: %s" what name) true (x = y) in
  same "in_admission_order" (V.in_admission_order a) (R.in_admission_order b);
  same "all_instances" (V.all_instances a) (R.all_instances b);
  same "version_numbers" (V.version_numbers a) (R.version_numbers b);
  List.iter
    (fun n ->
      match (V.find_version a n, R.find_version b n) with
      | Some va, Some vb ->
          same (Printf.sprintf "v%d instances" n) (V.version_instances va)
            (R.version_instances vb);
          same (Printf.sprintf "v%d count" n) (V.version_count va)
            (R.version_count vb)
      | _ -> Alcotest.failf "%s: v%d not live in both stores" what n)
    (R.version_numbers b);
  same "counts" (V.counts a) (R.counts b);
  same "instance_count" (V.instance_count a) (R.instance_count b);
  List.iter
    (fun id ->
      same ("find_instance " ^ id) (V.find_instance a id) (R.find_instance b id))
    ("unknown" :: ids)

(* The same seeded sequence of operations on the store and on its
   oracle, test/versions_ref.ml: new and re-started ids, starts on live
   and dead version numbers, observations, removals heavy enough that
   removed entries come to outnumber live ones (the store compacts its
   log then), moves, new versions, retirement and publishing. Results,
   raised [Invalid_argument] messages and every observable agree. *)
let test_store_differential () =
  let publics = [| buyer_pub; buyer_cancel_pub; buyer_once_pub |] in
  let outnumbered = ref 0 in
  for seed = 0 to 249 do
    let rng = Random.State.make [| seed |] in
    let int n = Random.State.int rng n in
    let a = V.create buyer_pub and b = R.create buyer_pub in
    let ids = ref [] and next = ref 0 in
    (* removed or re-started entries since the store last had more live
       entries than dead ones *)
    let dead = ref 0 and reached = ref false in
    let new_id () =
      incr next;
      let id = Printf.sprintf "i%d" !next in
      ids := id :: !ids;
      id
    in
    let some_id () =
      match !ids with
      | [] -> "unknown"
      | l -> List.nth l (int (List.length l))
    in
    let any_id () = if int 4 = 0 then new_id () else some_id () in
    let version () = int (List.hd (R.version_numbers b) + 2) in
    let inst id =
      I.make ~id ~trace:(List.init (int 4) (fun _ -> store_labels.(int 5))) ()
    in
    let kill id = if R.find_instance b id <> None then incr dead in
    for k = 1 to 80 do
      let op = int 100 in
      let what = Printf.sprintf "seed %d op %d (%d)" seed k op in
      let agree name x y = check_bool (what ^ ": " ^ name) true (x = y) in
      (if op < 25 then begin
         let i = inst (new_id ()) in
         V.start a i;
         R.start b i
       end
       else if op < 35 then begin
         let i = inst (any_id ()) and n = version () in
         let before = R.find_instance b i.I.id in
         let ra = outcome (fun () -> V.start_on a n i) in
         let rb = outcome (fun () -> R.start_on b n i) in
         agree "start_on" ra rb;
         if Result.is_ok rb && before <> None then incr dead
       end
       else if op < 45 then begin
         let i = inst (some_id ()) in
         kill i.I.id;
         V.start a i;
         R.start b i
       end
       else if op < 55 then begin
         let id = some_id () and lb = store_labels.(int 5) in
         V.observe a ~id lb;
         R.observe b ~id lb
       end
       else if op < 80 then begin
         let id = some_id () in
         kill id;
         agree "remove" (V.remove a ~id) (R.remove b ~id)
       end
       else if op < 90 then begin
         let id = any_id () and to_version = version () in
         agree "move_instance"
           (outcome (fun () -> V.move_instance a ~id ~to_version))
           (outcome (fun () -> R.move_instance b ~id ~to_version))
       end
       else if op < 95 then begin
         let p = publics.(int 3) in
         agree "add_version" (V.add_version a p) (R.add_version b p)
       end
       else if op < 98 then
         agree "retire_drained" (V.retire_drained a) (R.retire_drained b)
       else begin
         let p = publics.(int 3) in
         let ra = V.publish a p and rb = R.publish b p in
         agree "publish"
           (ra.V.to_version, ra.V.migrated, ra.V.finishing_on_old, ra.V.stuck)
           (rb.R.to_version, rb.R.migrated, rb.R.finishing_on_old, rb.R.stuck)
       end);
      if !dead > R.instance_count b then begin
        reached := true;
        dead := 0
      end;
      check_stores ~what !ids a b
    done;
    if !reached then incr outnumbered
  done;
  check_bool
    (Printf.sprintf "removed entries outnumber live ones in %d of 250 seeds"
       !outnumbered)
    true (!outnumbered >= 100)

(* ---------------------- choreography-level story ------------------- *)

let test_migration_after_evolution () =
  (* evolve the choreography (cancel change), then migrate the buyer's
     running instances to the adapted buyer process *)
  let o =
    C.Propagate.Engine.run ~direction:C.Propagate.Engine.Additive
      ~a':(gen P.accounting_cancel) ~partner_private:P.buyer_process ()
  in
  let new_buyer_pub = Option.get o.C.Propagate.Engine.adapted_public in
  let v = V.create buyer_pub in
  V.start v (I.make ~id:"running" ~trace:[ l "B#A#orderOp" ] ());
  V.start v (I.make ~id:"tracking"
       ~trace:
         [
           l "B#A#orderOp"; l "A#B#deliveryOp"; l "B#A#get_statusOp";
           l "A#B#statusOp";
         ]
       ());
  let rep = V.publish v new_buyer_pub in
  (* the additive change strictly widens the buyer protocol: every
     running instance migrates *)
  check_int "all migrated" 2 (List.length rep.V.migrated);
  check_int "none finishing on old" 0 (List.length rep.V.finishing_on_old);
  ignore cancel_view

let () =
  Alcotest.run "migration"
    [
      ( "instance",
        [
          Alcotest.test_case "replay" `Quick test_replay;
          Alcotest.test_case "completed" `Quick test_completed;
          Alcotest.test_case "extend/sample" `Quick test_extend_sample;
        ] );
      ( "compliance",
        [
          Alcotest.test_case "fresh migrates" `Quick
            test_compliance_fresh_instance_migrates;
          Alcotest.test_case "mid flight" `Quick test_compliance_mid_flight;
          Alcotest.test_case "dead end" `Quick test_dead_end;
          Alcotest.test_case "dispose" `Quick test_dispose;
          Alcotest.test_case "partition" `Quick test_partition;
        ] );
      ( "versions",
        [
          Alcotest.test_case "lifecycle" `Quick test_versions_lifecycle;
          Alcotest.test_case "observe" `Quick test_versions_observe;
          Alcotest.test_case "dispose at a dead end" `Quick
            test_dispose_dead_end;
          Alcotest.test_case "retire keeps current" `Quick
            test_retire_keeps_current;
          Alcotest.test_case "store operations" `Quick test_versions_store_ops;
          Alcotest.test_case "store differential" `Quick test_store_differential;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "migration after evolution" `Quick
            test_migration_after_evolution;
        ] );
    ]
