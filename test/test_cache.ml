(* The incremental re-checking layer (DESIGN.md §10): the bounded LRU,
   structural fingerprints, the weak intern table, the memoized algebra
   wrappers (differential against the raw operations), and the
   cross-round caches of Evolution/Consistency — cached runs must be
   outcome-identical at every pool size to a run that leaves every
   cache inert, and a bounded cache under churn must never return a
   stale result after an edit. *)

module C = Chorev
module A = C.Afsa
module FP = C.Fingerprint
module Lru = C.Cache.Lru
module Intern = C.Cache.Intern
module Memo = C.Cache.Memo

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let n_seeds = 120

(* ------------------------------- LRU -------------------------------- *)

let test_lru_basics () =
  let t = Lru.create ~capacity:2 in
  Lru.add t "a" 1;
  Lru.add t "b" 2;
  check_bool "find a" true (Lru.find t "a" = Some 1);
  (* "a" is now MRU; adding "c" evicts "b" *)
  Lru.add t "c" 3;
  check_bool "b evicted" true (Lru.find t "b" = None);
  check_bool "a kept" true (Lru.find t "a" = Some 1);
  check_bool "c kept" true (Lru.find t "c" = Some 3);
  check_int "length bounded" 2 (Lru.length t);
  Lru.add t "a" 10;
  check_bool "overwrite" true (Lru.find t "a" = Some 10);
  let s = Lru.stats t in
  check_int "evictions counted" 1 s.Lru.evictions;
  check_bool "hits and misses counted" true
    (s.Lru.hits >= 4 && s.Lru.misses >= 1);
  Lru.clear t;
  check_int "clear empties" 0 (Lru.length t)

let test_lru_capacity_one () =
  let t = Lru.create ~capacity:1 in
  List.iter (fun i -> Lru.add t i (i * i)) [ 1; 2; 3; 4 ];
  check_int "only one binding" 1 (Lru.length t);
  check_bool "latest wins" true (Lru.find t 4 = Some 16);
  check_bool "rejects capacity 0" true
    (match Lru.create ~capacity:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Property: under random churn a bounded LRU behaves like the
   unbounded reference map restricted to keys it still holds — a hit
   returns exactly the reference's latest value, never a stale one. *)
let test_lru_model_property () =
  let rng = Random.State.make [| 0xCAFE |] in
  let t = Lru.create ~capacity:5 in
  let reference = Hashtbl.create 64 in
  for _ = 1 to 5_000 do
    let k = Random.State.int rng 20 in
    if Random.State.bool rng then begin
      let v = Random.State.int rng 1_000_000 in
      Hashtbl.replace reference k v;
      Lru.add t k v
    end
    else
      match Lru.find t k with
      | None -> ()
      | Some v ->
          check_int (Printf.sprintf "hit on %d is current" k)
            (Hashtbl.find reference k) v
  done;
  check_bool "size stays bounded" true (Lru.length t <= 5);
  check_int "keys list matches size" (Lru.length t) (List.length (Lru.keys t))

(* --------------------------- fingerprints --------------------------- *)

let lbl s r m = C.Sym.L (C.Label.make ~sender:s ~receiver:r m)

let test_fingerprint_structural () =
  List.iter
    (fun s ->
      let x = C.Workload.Gen_afsa.random ~seed:s ~states:5 ~ann_p:0.4 () in
      let y = A.copy x in
      check_bool
        (Printf.sprintf "copy shares fingerprint (seed %d)" s)
        true
        (String.equal (FP.digest x) (FP.digest y));
      check_bool
        (Printf.sprintf "fingerprint equality is structural equality (seed %d)"
           s)
        true
        (FP.equal x y = A.structurally_equal x y))
    (List.init n_seeds Fun.id);
  (* distinct structures get distinct digests (no trivial collisions) *)
  let a = A.make ~start:0 ~finals:[ 1 ] ~edges:[ (0, lbl "A" "B" "x", 1) ] ()
  and b = A.make ~start:0 ~finals:[ 1 ] ~edges:[ (0, lbl "A" "B" "y", 1) ] () in
  check_bool "different structure, different digest" false (FP.equal a b)

let test_fingerprint_invalidation () =
  let a = A.make ~start:0 ~finals:[ 1 ] ~edges:[ (0, lbl "A" "B" "x", 1) ] () in
  let d0 = FP.digest a in
  check_bool "digest cached after compute" true (FP.peek a = Some d0);
  (* every structural modifier yields a value with no cached digest,
     and recomputation reflects the change *)
  let modified =
    [
      A.add_edge a (1, lbl "B" "A" "y", 0);
      A.set_annotation a 1 (C.Formula.var "m");
      A.set_finals a [ 0 ];
      A.widen_alphabet a [ C.Label.make ~sender:"A" ~receiver:"B" "z" ];
    ]
  in
  List.iteri
    (fun i m ->
      check_bool (Printf.sprintf "modifier %d resets cache" i) true
        (FP.peek m = None);
      check_bool (Printf.sprintf "modifier %d changes digest" i) false
        (String.equal (FP.digest m) d0))
    modified;
  check_bool "original digest untouched" true (FP.peek a = Some d0);
  check_bool "digest is deterministic" true (String.equal (FP.compute a) d0)

let test_fingerprint_minimize_canonical () =
  (* language-equal automata need not share a fingerprint, but their
     minimized forms are the canonical minimal DFA and must *)
  List.iter
    (fun s ->
      let x = C.Workload.Gen_afsa.random_protocol ~seed:s ~states:7 () in
      let y = A.copy x in
      let y = A.add_edge y (List.hd (A.states y), lbl "A" "B" "pad", 999) in
      (* the padded branch is dead weight reaching no final state *)
      let mx = C.Minimize.minimize x and my = C.Minimize.minimize y in
      if C.Equiv.equal_annotated mx my then
        check_bool
          (Printf.sprintf "minimized digests canonical (seed %d)" s)
          true (FP.equal mx my))
    (List.init 40 Fun.id)

(* ------------------------------ intern ------------------------------ *)

let test_intern_canonical () =
  let x = C.Workload.Gen_afsa.random ~seed:7 ~states:5 ~ann_p:0.4 () in
  let cx = Intern.canonical x in
  let cy = Intern.canonical (A.copy x) in
  check_bool "structurally equal automata intern to one value" true (cx == cy);
  check_bool "the representative is its own canonical" true
    (Intern.canonical cx == cx);
  let z = A.set_finals x [] in
  check_bool "distinct structure, distinct representative" true
    (Intern.canonical z != cx)

(* ------------------------ memo differentials ------------------------ *)

let pair_of_seed s =
  ( C.Workload.Gen_afsa.random ~seed:(2 * s) ~states:5 ~ann_p:0.3 (),
    C.Workload.Gen_afsa.random ~seed:((2 * s) + 1) ~states:5 ~ann_p:0.3 () )

let memo_agrees name memo raw =
  List.iter
    (fun s ->
      let a, b = pair_of_seed s in
      (* twice: the second call exercises the hit path *)
      let m1 = memo a b and r = raw a b in
      let m2 = memo (A.copy a) (A.copy b) in
      check_bool
        (Printf.sprintf "%s memo = raw (seed %d)" name s)
        true
        (C.Equiv.equal_annotated m1 r);
      check_bool
        (Printf.sprintf "%s hit = miss (seed %d)" name s)
        true
        (A.structurally_equal m1 m2))
    (List.init n_seeds Fun.id)

let test_memo_binops () =
  memo_agrees "difference" Memo.difference C.Ops.difference;
  memo_agrees "union" Memo.union C.Ops.union

let test_memo_unops_and_tau () =
  List.iter
    (fun s ->
      let x = C.Workload.Gen_afsa.random ~seed:s ~states:6 ~ann_p:0.4 () in
      check_bool
        (Printf.sprintf "minimize memo = raw (seed %d)" s)
        true
        (A.structurally_equal (Memo.minimize x) (C.Minimize.minimize x));
      check_bool
        (Printf.sprintf "tau memo = raw (seed %d)" s)
        true
        (A.structurally_equal
           (Memo.tau ~observer:"B" x)
           (C.View.tau ~observer:"B" x)))
    (List.init n_seeds Fun.id)

let test_memo_generate_and_verdict () =
  List.iter
    (fun s ->
      let pa, pb = C.Workload.Gen_process.pair ~seed:s () in
      let ga, ta = Memo.generate pa in
      let ra, rt = C.Public_gen.generate pa in
      check_bool
        (Printf.sprintf "generate memo = raw (seed %d)" s)
        true
        (FP.equal ga ra && C.Table.to_string ta = C.Table.to_string rt);
      let a = Memo.public pa and b = Memo.public pb in
      let consistent, witness = Memo.check_verdict a b in
      let r = C.Consistency.check a b in
      check_bool
        (Printf.sprintf "verdict memo = raw (seed %d)" s)
        true
        (consistent = r.C.Consistency.consistent
        && witness = r.C.Consistency.witness))
    (List.init 40 Fun.id)

(* Generation is memoized on the physical process: the same process
   hits, a structurally equal copy misses (with an equal result), no
   lookup happens under a finite budget, and [reset] empties the
   table. *)
let test_memo_generate_identity () =
  let stats () = List.assoc "generate" (Memo.stats ()) in
  let lookups () = (stats ()).Lru.hits + (stats ()).Lru.misses in
  Memo.reset ();
  let p, _ = C.Workload.Gen_process.pair ~seed:7 () in
  let s0 = stats () in
  let r = Memo.generate p in
  check_bool "same process, same pair" true (Memo.generate p == r);
  let s1 = stats () in
  check_int "one miss" (s0.Lru.misses + 1) s1.Lru.misses;
  check_int "one hit" (s0.Lru.hits + 1) s1.Lru.hits;
  let copy =
    Result.get_ok
      (C.Bpel.Sexp.process_of_string (C.Bpel.Sexp.process_to_string p))
  in
  let r' = Memo.generate copy in
  check_int "a copy misses" (s1.Lru.misses + 1) (stats ()).Lru.misses;
  check_bool "a copy: equal fingerprint" true (FP.equal (fst r) (fst r'));
  Alcotest.(check string)
    "a copy: equal table" (C.Table.to_string (snd r))
    (C.Table.to_string (snd r'));
  let before = lookups () in
  (match
     C.Guard.Budget.run (C.Guard.Budget.create ~fuel:1_000_000 ()) (fun () ->
         Memo.generate p)
   with
  | `Done (a, _) -> check_bool "raw under a budget" true (FP.equal a (fst r))
  | `Exceeded _ -> Alcotest.fail "budget tripped unexpectedly");
  check_int "no lookup under a budget" before (lookups ());
  check_bool "filled" true ((stats ()).Lru.size > 0);
  Memo.reset ();
  check_int "reset empties" 0 (stats ()).Lru.size

(* An entry does not keep its process alive. *)
let test_memo_generate_weak () =
  let w = Weak.create 1 in
  let generate_fresh () =
    let p, _ = C.Workload.Gen_process.pair ~seed:11 () in
    Weak.set w 0 (Some p);
    ignore (Memo.generate p)
  in
  generate_fresh ();
  Gc.full_major ();
  check_bool "process collected" true (Weak.get w 0 = None)

(* Under a limited ambient budget the wrappers must stand down (so fuel
   accounting stays byte-identical with and without caching). *)
let test_memo_inert_under_budget () =
  check_bool "active by default" true (Memo.active ());
  let b =
    C.Guard.Budget.of_spec { C.Guard.Budget.fuel = Some 1_000_000; timeout_s = None }
  in
  match
    C.Guard.Budget.run b (fun () ->
        check_bool "inactive under finite fuel" false (Memo.active ());
        let a, b = pair_of_seed 3 in
        C.Equiv.equal_annotated (Memo.difference a b) (C.Ops.difference a b))
  with
  | `Done ok -> check_bool "raw path still correct" true ok
  | `Exceeded _ -> Alcotest.fail "budget tripped unexpectedly"

(* -------------------- eviction + invalidation ----------------------- *)

(* A tiny cache under churn: random sequences of private-process edits,
   with every regeneration checked against the raw generator. Stale
   reuse after an edit would show up as a mismatch; constant eviction
   (the table is far smaller than the working set) must only cost
   recomputation, never correctness. *)
let test_never_stale_under_churn () =
  let rng = Random.State.make [| 0xBEEF |] in
  let procs =
    ref
      (List.init 8 (fun s -> fst (C.Workload.Gen_process.pair ~seed:s ())))
  in
  for step = 1 to 60 do
    let i = Random.State.int rng (List.length !procs) in
    let p = List.nth !procs i in
    (* mutate: apply a random valid change op when one exists *)
    let p' =
      let op =
        if Random.State.bool rng then
          C.Workload.Gen_change.additive ~seed:step p
        else C.Workload.Gen_change.subtractive ~seed:step p
      in
      match op with
      | None -> p
      | Some op -> (
          match C.Change.Ops.apply op p with Ok q -> q | Error _ -> p)
    in
    procs := List.mapi (fun j q -> if j = i then p' else q) !procs;
    List.iter
      (fun q ->
        check_bool
          (Printf.sprintf "memo public fresh after edit (step %d)" step)
          true
          (C.Equiv.equal_annotated (Memo.public q) (C.Public_gen.public q)))
      !procs
  done

(* ----------------- cached vs memo-inert end-to-end ------------------ *)

(* Verdicts are plain data; outcomes hold automata, whose cached-digest
   field differs between memoized and raw runs, so only their presence
   is compared. *)
let project (r : C.Choreography.Evolution.report) =
  ( r.consistent,
    List.map
      (fun (rd : C.Choreography.Evolution.round) ->
        ( rd.originator,
          rd.public_changed,
          List.map
            (fun (p : C.Choreography.Evolution.partner_report) ->
              (p.partner, p.verdict, Option.is_some p.outcome))
            rd.partners ))
      r.rounds )

let publics_of (r : C.Choreography.Evolution.report) =
  List.map
    (fun p -> C.Choreography.Model.public r.choreography p)
    (C.Choreography.Model.parties r.choreography)

let privates_of (r : C.Choreography.Evolution.report) =
  List.map
    (fun p -> C.Choreography.Model.private_ r.choreography p)
    (C.Choreography.Model.parties r.choreography)

let procurement_model () =
  C.Choreography.Model.of_processes (List.map snd C.Scenario.Procurement.parties)

let evolve_cancel ?cache config =
  match
    C.Choreography.Evolution.run ~config ?cache (procurement_model ())
      ~owner:"A" ~changed:C.Scenario.Procurement.accounting_cancel
  with
  | Ok r -> r
  | Error (`Unknown_party p) -> Alcotest.failf "unknown party %s" p

let memo_lookups () =
  List.fold_left
    (fun n (_, (s : Lru.stats)) -> n + s.Lru.hits + s.Lru.misses)
    0 (Memo.stats ())

(* The baseline leaves every cache inert: one domain, fuel far beyond
   what the run spends on every op and round budget and on the ambient
   budget around the whole run, so each memo wrapper stands down and
   the raw algebra runs — what every budgeted step runs. *)
let test_evolution_cached_equals_uncached () =
  let ample = { C.Guard.Budget.fuel = Some (1 lsl 40); timeout_s = None } in
  let lookups = memo_lookups () in
  let baseline =
    match
      Harness.with_jobs 1 @@ fun () ->
      C.Guard.Budget.run (C.Guard.Budget.of_spec ample) (fun () ->
          evolve_cancel
            { C.Config.default with op_budget = ample; round_budget = ample })
    with
    | `Done r -> r
    | `Exceeded _ -> Alcotest.fail "ample fuel ran out"
  in
  check_int "memo-inert baseline made no memo lookup" lookups (memo_lookups ());
  List.iter
    (fun jobs ->
      let handle = C.Choreography.Evolution.Cache.create () in
      let run () =
        Harness.with_jobs jobs (fun () ->
            evolve_cancel ~cache:handle C.Config.default)
      in
      (* twice with one handle: the second run replays entirely from
         the step cache and must still match the memo-inert baseline *)
      let first = run () in
      let second = run () in
      List.iter
        (fun (name, r) ->
          check_bool
            (Printf.sprintf "%s report = memo-inert (jobs=%d)" name jobs)
            true
            (project r = project baseline);
          check_bool
            (Printf.sprintf "%s publics = memo-inert (jobs=%d)" name jobs)
            true
            (List.for_all2 A.structurally_equal (publics_of r)
               (publics_of baseline));
          check_bool
            (Printf.sprintf "%s privates = memo-inert (jobs=%d)" name jobs)
            true
            (privates_of r = privates_of baseline))
        [ ("cached-cold", first); ("cached-warm", second) ];
      let steps = List.assoc "steps" (C.Choreography.Evolution.Cache.stats handle) in
      check_bool
        (Printf.sprintf "warm run reused steps (jobs=%d)" jobs)
        true (steps.Lru.hits > 0))
    [ 1; 2; 8 ]

(* The step cache must stand down whenever a budget could trip: a
   reused step would skip the trip. Two runs on one shared handle under
   each bounded config make no step-cache lookup at all; repair with an
   unlimited search budget keeps the cache armed. *)
let test_step_cache_stands_down () =
  let steps config =
    let handle = C.Choreography.Evolution.Cache.create () in
    ignore (evolve_cancel ~cache:handle config);
    ignore (evolve_cancel ~cache:handle config);
    List.assoc "steps" (C.Choreography.Evolution.Cache.stats handle)
  in
  List.iter
    (fun (what, config) ->
      let s = steps config in
      check_int (what ^ ": no step-cache lookup") 0 (s.Lru.hits + s.Lru.misses))
    [
      ( "finite op budget",
        C.Config.with_budgets
          ~op_budget:{ C.Guard.Budget.fuel = Some 1_000_000; timeout_s = None }
          C.Config.default );
      ( "finite round budget",
        C.Config.with_budgets
          ~round_budget:
            { C.Guard.Budget.fuel = Some 1_000_000; timeout_s = None }
          C.Config.default );
      ( "deadline-only op budget",
        C.Config.with_budgets
          ~op_budget:{ C.Guard.Budget.fuel = None; timeout_s = Some 3600. }
          C.Config.default );
      ("repair fuel", C.Config.with_repair ~fuel:1000 C.Config.default);
    ];
  check_bool "unlimited repair: the step cache hits" true
    ((steps (C.Config.with_repair C.Config.default)).Lru.hits > 0)

(* A repeated all-pairs check is answered by the memo's [pair] table:
   the second pass equals the first, takes one [pair] hit per pair and
   builds no product. Sequential, so every lookup lands in this
   domain's tables. *)
let test_check_all_repeat () =
  let hub_p, spokes = C.Workload.Scale.hub 5 in
  let model = C.Choreography.Model.of_processes (hub_p :: spokes) in
  let check_all () =
    C.Choreography.Consistency.check_all ~pool:C.Parallel.Pool.sequential model
  in
  let pair_hits () = (List.assoc "pair" (Memo.stats ())).Lru.hits in
  let products () =
    List.assoc "afsa.product.pairs" (C.Obs.Metrics.counters ())
  in
  C.Obs.Metrics.enabled := true;
  Fun.protect ~finally:(fun () -> C.Obs.Metrics.enabled := false) @@ fun () ->
  let first = check_all () in
  check_int "hub 5: five pairs" 5 (List.length first);
  let hits = pair_hits () and pairs = products () in
  let second = check_all () in
  check_bool "second pass = first" true (second = first);
  check_int "one pair hit per pair" (hits + 5) (pair_hits ());
  check_int "no product pair" pairs (products ())

(* [Model.of_processes] derives publics through [Memo.generate]: its
   publics and tables equal the raw generator's, and a later generation
   of a registered process is a hit returning the public the model
   holds. *)
let test_of_processes_memoized () =
  Memo.reset ();
  let procs = List.map snd C.Scenario.Procurement.parties in
  let model = C.Choreography.Model.of_processes procs in
  let generate = List.assoc "generate" (Memo.stats ()) in
  List.iter
    (fun p ->
      let party = C.Bpel.Process.party p in
      let public, table = C.Public_gen.generate p in
      Alcotest.(check string)
        (party ^ ": public = raw") (FP.hex public)
        (FP.hex (C.Choreography.Model.public model party));
      Alcotest.(check string)
        (party ^ ": table = raw") (C.Table.to_string table)
        (C.Table.to_string (C.Choreography.Model.table model party));
      check_bool (party ^ ": memo returns the model's public") true
        (fst (Memo.generate p) == C.Choreography.Model.public model party))
    procs;
  let after = List.assoc "generate" (Memo.stats ()) in
  check_int "a hit per process"
    (generate.Lru.hits + List.length procs)
    after.Lru.hits;
  check_int "no further miss" generate.Lru.misses after.Lru.misses

(* A node adopting an adaptation derives its public through the memo:
   the buyer answering the cancel change's announce holds the very
   automaton [Memo.public] returns for the adapted process. *)
let test_node_adopts_through_memo () =
  let module Node = Chorev_choreography.Node in
  let module P = C.Scenario.Procurement in
  let before = procurement_model () in
  let current = C.Choreography.Model.update before P.accounting_cancel in
  let node = Node.of_model ~before ~current P.buyer in
  let effects =
    Node.handle node ~from_:P.accounting
      (Node.Announce
         { public = C.Choreography.Model.public current P.accounting })
  in
  match
    List.find_map (function Node.Adapted p -> Some p | _ -> None) effects
  with
  | None -> Alcotest.fail "the buyer must adapt to the cancel change"
  | Some p' ->
      check_bool "node public is the memo's" true
        (node.Node.public == Memo.public p')

(* --------------------- discovery by fingerprint --------------------- *)

let test_discovery_fingerprint_keys () =
  let reg = C.Discovery.create () in
  let pa = fst (C.Workload.Scale.ladder 3) in
  let pb = fst (C.Workload.Scale.service_loop 3) in
  C.Discovery.advertise_process reg ~name:"svc-a" pa;
  C.Discovery.advertise_process reg ~name:"svc-b" pb;
  (* a structurally equal re-derivation finds the entry by fingerprint *)
  let pub_a = C.Public_gen.public pa in
  (match C.Discovery.find_by_structure reg pub_a with
  | [ e ] ->
      Alcotest.(check string) "found by structure" "svc-a" e.C.Discovery.name;
      check_bool "entry fingerprint matches lookup key" true
        (String.equal (C.Discovery.fingerprint e) (FP.digest pub_a))
  | es -> Alcotest.failf "expected one structural match, got %d" (List.length es));
  check_bool "mem_structure positive" true (C.Discovery.mem_structure reg pub_a);
  let stranger = C.Public_gen.public (fst (C.Workload.Scale.menu 4)) in
  check_bool "mem_structure negative" false
    (C.Discovery.mem_structure reg stranger);
  (* advertising structurally equal publics interns them to one value *)
  C.Discovery.advertise reg ~name:"svc-a2" ~party:"A" (C.Public_gen.public pa);
  match C.Discovery.find_by_structure reg pub_a with
  | [ e1; e2 ] ->
      check_bool "equal structures share one interned automaton" true
        (e1.C.Discovery.public == e2.C.Discovery.public)
  | es -> Alcotest.failf "expected two structural matches, got %d" (List.length es)

let () =
  Alcotest.run "cache"
    [
      ( "lru",
        [
          Alcotest.test_case "basics" `Quick test_lru_basics;
          Alcotest.test_case "capacity one" `Quick test_lru_capacity_one;
          Alcotest.test_case "model property" `Quick test_lru_model_property;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "structural" `Quick test_fingerprint_structural;
          Alcotest.test_case "invalidation" `Quick test_fingerprint_invalidation;
          Alcotest.test_case "minimize canonical" `Quick
            test_fingerprint_minimize_canonical;
        ] );
      ("intern", [ Alcotest.test_case "canonical" `Quick test_intern_canonical ]);
      ( "memo vs raw",
        [
          Alcotest.test_case "binops" `Quick test_memo_binops;
          Alcotest.test_case "unops and tau" `Quick test_memo_unops_and_tau;
          Alcotest.test_case "generate and verdict" `Quick
            test_memo_generate_and_verdict;
          Alcotest.test_case "inert under budget" `Quick
            test_memo_inert_under_budget;
          Alcotest.test_case "generate keyed on identity" `Quick
            test_memo_generate_identity;
          Alcotest.test_case "generate keys are weak" `Quick
            test_memo_generate_weak;
        ] );
      ( "churn",
        [
          Alcotest.test_case "never stale under churn" `Quick
            test_never_stale_under_churn;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "evolution cached = uncached" `Quick
            test_evolution_cached_equals_uncached;
          Alcotest.test_case "step cache stands down under budgets" `Quick
            test_step_cache_stands_down;
          Alcotest.test_case "check_all repeat hits the pair table" `Quick
            test_check_all_repeat;
          Alcotest.test_case "of_processes goes through the memo" `Quick
            test_of_processes_memoized;
          Alcotest.test_case "node adopts through the memo" `Quick
            test_node_adopts_through_memo;
        ] );
      ( "discovery",
        [
          Alcotest.test_case "fingerprint keys" `Quick
            test_discovery_fingerprint_keys;
        ] );
    ]
