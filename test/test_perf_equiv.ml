(* Differential tests for the algebra: every operation has one
   production implementation, and each must agree with its reference
   oracle in Ablation — the seed's recursive products, emptiness
   fixpoint and minimization, and the map-shaped ε-elimination and
   subset construction. Budgets are part of the contract: determinize
   and ε-elimination tick exactly like their references at every fuel
   level, every fuel-bounded run trips exactly at its bound, the
   per-input fuel totals of difference, emptiness, determinize and
   minimize are pinned to recorded values, and so are the exact
   outputs and fuel totals of the three products. *)

module C = Chorev
module A = C.Afsa
module B = C.Guard.Budget
module W = C.Workload.Gen_afsa

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let n_seeds = 120

let pair_of_seed s =
  ( C.Workload.Gen_afsa.random ~seed:(2 * s) ~states:5 ~ann_p:0.3 (),
    C.Workload.Gen_afsa.random ~seed:((2 * s) + 1) ~states:5 ~ann_p:0.3 () )

(* [pairs] are [(id, (a, b))]; ids are for failure messages only. *)
let agree name op reference pairs =
  List.iter
    (fun (s, (a, b)) ->
      check_bool
        (Printf.sprintf "%s agrees with reference (%s)" name s)
        true
        (C.Equiv.equal_annotated (op a b) (reference a b)))
    pairs

let seed_pairs () =
  List.init n_seeds (fun s -> (Printf.sprintf "seed %d" s, pair_of_seed s))

let test_intersect_agrees () =
  agree "intersect" C.Ops.intersect C.Ablation.intersect_ref (seed_pairs ())

let test_difference_agrees () =
  agree "difference" C.Ops.difference C.Ablation.difference_ref
    (seed_pairs ())

let test_union_agrees () =
  agree "union" C.Ops.union C.Ablation.union_ref (seed_pairs ())

(* The emptiness rewrite (predecessor CSR, per-state
   variable→targets tables) must not change the fixpoint: same sat set,
   same verdict, same number of iterations as the seed loop that
   rebuilds its reverse table every round. *)
let emptiness_agrees inputs =
  List.iter
    (fun (s, x) ->
      let r = C.Emptiness.analyze x in
      let sat_ref, nonempty_ref, iter_ref = C.Ablation.analyze_ref x in
      check_bool
        (Printf.sprintf "verdict (input %d)" s)
        nonempty_ref r.C.Emptiness.nonempty;
      check_bool
        (Printf.sprintf "sat set (input %d)" s)
        true
        (A.ISet.equal sat_ref r.C.Emptiness.sat);
      check_int
        (Printf.sprintf "iterations (input %d)" s)
        iter_ref r.C.Emptiness.iterations)
    inputs

let test_emptiness_parity () =
  emptiness_agrees
    (List.init n_seeds (fun s ->
         (s, C.Workload.Gen_afsa.random ~seed:s ~states:7 ~ann_p:0.5 ())))

(* The trim-first cords minimize must agree with the seed's
   list/Hashtbl Hopcroft kept in Ablation. The new algorithm is
   strictly more canonical — the reference can keep duplicate live
   states apart when they differ only in edges into distinct dead
   classes — so on arbitrary inputs we check annotated-language
   equality plus "never more states"; structural equality is asserted
   on the dead-state-free protocol family, where both must produce the
   identical minimal DFA. *)
let minimize_agrees name inputs =
  List.iter
    (fun (s, x) ->
      let m = C.Minimize.minimize x in
      let r = C.Ablation.minimize_ref x in
      check_bool
        (Printf.sprintf "%s: same annotated language (seed %d)" name s)
        true
        (C.Equiv.equal_annotated m r);
      check_bool
        (Printf.sprintf "%s: no more states than reference (seed %d)" name s)
        true
        (List.length (A.states m) <= List.length (A.states r));
      check_bool
        (Printf.sprintf "%s: idempotent (seed %d)" name s)
        true
        (A.structurally_equal (C.Minimize.minimize m) m))
    inputs

let test_minimize_random_agrees () =
  minimize_agrees "random"
    (List.init n_seeds (fun s ->
         (s, C.Workload.Gen_afsa.random ~seed:s ~states:6 ~ann_p:0.4 ())))

let test_minimize_protocol_structural () =
  List.iter
    (fun s ->
      let x = C.Workload.Gen_afsa.random_protocol ~seed:s ~states:8 () in
      check_bool
        (Printf.sprintf "protocol: structurally equal to reference (seed %d)" s)
        true
        (A.structurally_equal (C.Minimize.minimize x)
           (C.Ablation.minimize_ref x)))
    (List.init n_seeds Fun.id)

(* Deterministic annotated inputs exercise the det fast path together
   with annotation-keyed initial classes. *)
let test_minimize_annotated_det () =
  minimize_agrees "annotated-det"
    (List.init n_seeds (fun s ->
         let x = C.Workload.Gen_afsa.random_protocol ~seed:s ~states:7 () in
         let states = A.states x in
         let q = List.nth states (s mod List.length states) in
         (s, A.set_annotation x q (C.Formula.var "m"))))

(* Empty-language and degenerate inputs take the completed-table
   fallback; they must still agree with the reference. *)
let test_minimize_edge_cases () =
  let no_finals =
    A.make ~start:0 ~finals:[]
      ~edges:[ (0, C.Sym.L (C.Label.make ~sender:"A" ~receiver:"B" "x"), 1) ]
      ()
  in
  let single = A.make ~start:0 ~finals:[ 0 ] ~edges:[] () in
  let dead_branch =
    (* a final state plus a branch that can never reach it *)
    let l n = C.Sym.L (C.Label.make ~sender:"A" ~receiver:"B" n) in
    A.make ~start:0 ~finals:[ 1 ]
      ~edges:[ (0, l "a", 1); (0, l "b", 2); (2, l "c", 2) ]
      ()
  in
  minimize_agrees "edge-case"
    [ (0, no_finals); (1, single); (2, dead_branch) ]

(* The domain-pool fan-out must be invisible in results: check_all and
   the evolution pipeline produce identical output for every pool
   size. Verdicts are plain data, so (=) is safe; evolved models are
   compared by projection ((=) on Afsa.t would look at mutable
   indexes). *)
let test_check_all_pool_invariant () =
  let hub_p, spokes = C.Workload.Scale.hub 5 in
  let model = C.Choreography.Model.of_processes (hub_p :: spokes) in
  let seq = C.Choreography.Consistency.check_all model in
  List.iter
    (fun n ->
      let pool = C.Parallel.Pool.sized n in
      let par = C.Choreography.Consistency.check_all ~pool model in
      C.Parallel.Pool.shutdown pool;
      check_bool
        (Printf.sprintf "check_all equal for pool size %d" n)
        true (par = seq))
    [ 1; 2; 8 ]

let test_evolution_pool_invariant () =
  let model =
    C.Choreography.Model.of_processes
      (List.map snd C.Scenario.Procurement.parties)
  in
  let run jobs =
    Harness.with_jobs jobs @@ fun () ->
    match
      C.Choreography.Evolution.run model ~owner:"A"
        ~changed:C.Scenario.Procurement.accounting_cancel
    with
    | Ok r -> r
    | Error (`Unknown_party p) -> Alcotest.failf "unknown party %s" p
  in
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
  in
  let publics_of (r : C.Choreography.Evolution.report) =
    List.map
      (fun p -> C.Choreography.Model.public r.choreography p)
      (C.Choreography.Model.parties r.choreography)
  in
  let seq = run 1 in
  List.iter
    (fun jobs ->
      let par = run jobs in
      check_bool
        (Printf.sprintf "evolution report equal for jobs=%d" jobs)
        true
        (project par = project seq);
      check_bool
        (Printf.sprintf "evolved publics equal for jobs=%d" jobs)
        true
        (List.for_all2 A.structurally_equal (publics_of par) (publics_of seq));
      check_bool
        (Printf.sprintf "evolved privates equal for jobs=%d" jobs)
        true
        (List.map
           (C.Choreography.Model.private_ par.choreography)
           (C.Choreography.Model.parties par.choreography)
        = List.map
            (C.Choreography.Model.private_ seq.choreography)
            (C.Choreography.Model.parties seq.choreography)))
    [ 2; 8 ]

(* Regression: the seed's recursive product overflowed the stack on
   deep products; the worklist must handle a 400-round ladder. *)
let test_ladder_400_no_overflow () =
  let pa, pb = C.Workload.Scale.ladder 400 in
  let a = C.Public_gen.public pa and b = C.Public_gen.public pb in
  let i = C.Ops.intersect a b in
  check_bool "ladder-400 intersection inhabited" false
    (C.Emptiness.is_empty_plain i);
  check_bool "ladder-400 pair consistent" true (C.Consistency.consistent a b);
  check_bool "ladder-400 self-difference empty" true
    (C.Emptiness.is_empty_plain (C.Ops.difference a a))

(* ------------------------------------------------------------------ *)
(* Kernel differentials over a 244-input corpus                        *)
(* ------------------------------------------------------------------ *)

(* Relabel every third proper edge to ε — the random generators emit
   proper edges only, and the ε CSR / closure paths need coverage. *)
let sprinkle_eps a =
  let edges =
    List.mapi
      (fun i (s, sym, t) -> if i mod 3 = 2 then (s, C.Sym.Eps, t) else (s, sym, t))
      (A.edges a)
  in
  A.make ~alphabet:(A.alphabet a) ~start:(A.start a) ~finals:(A.finals a)
    ~edges ~ann:(A.annotations a) ()

(* 80 random automata and their ε-sprinkled twins, 80 protocols, and
   four edge cases; input ids are for failure messages only. *)
let corpus =
  lazy
    (let l n = C.Sym.L (C.Label.make ~sender:"A" ~receiver:"B" n) in
     List.concat_map
       (fun s ->
         let x = W.random ~seed:s ~states:6 ~ann_p:0.3 () in
         [ (s, x); (1000 + s, sprinkle_eps x) ])
       (List.init 80 Fun.id)
     @ List.init 80 (fun s -> (s, W.random_protocol ~seed:s ~states:8 ()))
     @ [
         (0, A.make ~start:0 ~finals:[ 0 ] ~edges:[] ());
         (1, A.make ~start:0 ~finals:[] ~edges:[ (0, l "x", 1) ] ());
         (* ε-cycle through the start, ε into a final *)
         ( 2,
           A.make ~start:0 ~finals:[ 2 ]
             ~edges:
               [
                 (0, C.Sym.Eps, 1); (1, C.Sym.Eps, 0); (1, l "a", 2);
                 (2, C.Sym.Eps, 0);
               ]
             () );
         (* annotated diamond with a dead branch *)
         ( 3,
           A.make ~start:0 ~finals:[ 3 ]
             ~edges:
               [ (0, l "a", 1); (0, l "b", 2); (1, l "c", 3); (2, l "d", 2) ]
             ~ann:[ (1, C.Formula.var "A#B#cOp") ]
             () );
       ])

let corpus () = Lazy.force corpus

(* Every run gets a fresh copy (private lazy CSRs), so no run
   sees caches another one built. *)
let structural name op reference =
  List.iter
    (fun (s, x) ->
      check_bool
        (Printf.sprintf "%s = reference (input %d)" name s)
        true
        (A.structurally_equal (op (A.copy x)) (reference (A.copy x))))
    (corpus ())

let test_determinize () =
  structural "determinize"
    (fun x -> C.Determinize.determinize x)
    (fun x -> C.Ablation.determinize_ref x)

let test_eliminate () =
  structural "eliminate"
    (fun x -> C.Epsilon.eliminate x)
    (fun x -> C.Ablation.eliminate_ref x)

let test_minimize () = minimize_agrees "corpus" (corpus ())

(* Each corpus input against its successor (cyclically): products
   with ε on either side, protocols against random automata, and the
   edge cases. *)
let corpus_pairs () =
  let xs = Array.of_list (corpus ()) in
  List.init (Array.length xs) (fun i ->
      let s, a = xs.(i) and t, b = xs.((i + 1) mod Array.length xs) in
      (Printf.sprintf "inputs %d, %d" s t, (a, b)))

let test_corpus_intersect () =
  agree "intersect" C.Ops.intersect C.Ablation.intersect_ref (corpus_pairs ())

let test_corpus_difference () =
  agree "difference" C.Ops.difference C.Ablation.difference_ref
    (corpus_pairs ())

let test_corpus_union () =
  agree "union" C.Ops.union C.Ablation.union_ref (corpus_pairs ())

let test_corpus_emptiness () = emptiness_agrees (corpus ())

(* Naive reference walks over [A.step]: [succs q] lists the neighbors
   of [q]; the walk returns every state reached from [seeds]. *)
let naive_walk succs seeds =
  let rec go seen = function
    | [] -> seen
    | q :: rest ->
        if A.ISet.mem q seen then go seen rest
        else go (A.ISet.add q seen) (succs q @ rest)
  in
  go A.ISet.empty seeds

let naive_closure a set =
  naive_walk (fun q -> A.ISet.elements (A.step a q C.Sym.Eps)) (A.ISet.elements set)

(* A state id [x] does not use. *)
let absent_state x = 1 + List.fold_left max 0 (A.states x)

(* ε-closures against a naive reference walk, through both closure
   entry points. *)
let test_closures () =
  List.iter
    (fun (s, x) ->
      List.iter
        (fun q ->
          check_bool
            (Printf.sprintf "closure_of (input %d, state %d)" s q)
            true
            (A.ISet.equal
               (naive_closure x (A.ISet.singleton q))
               (C.Epsilon.closure_of (A.copy x) q)))
        (absent_state x :: A.states x);
      let all = A.ISet.of_list (A.states x) in
      check_bool
        (Printf.sprintf "closure of full state set (input %d)" s)
        true
        (A.ISet.equal (naive_closure x all) (C.Epsilon.closure (A.copy x) all)))
    (corpus ())

(* Reachability and both trims against naive walks over [A.step]:
   forward over every symbol including ε, backward over every symbol. *)
let syms_of x = C.Sym.Eps :: List.map (fun l -> C.Sym.L l) (A.alphabet x)

let naive_reachable x q =
  naive_walk
    (fun q ->
      List.concat_map (fun y -> A.ISet.elements (A.step x q y)) (syms_of x))
    [ q ]

let naive_coreachable x =
  let preds t =
    List.filter
      (fun q ->
        List.exists (fun y -> A.ISet.mem t (A.step x q y)) (syms_of x))
      (A.states x)
  in
  naive_walk preds (A.finals x)

(* [x] restricted to [keep] plus the start, rebuilt from its parts. *)
let naive_restrict x keep =
  let keep = A.ISet.add (A.start x) keep in
  let mem q = A.ISet.mem q keep in
  A.make ~alphabet:(A.alphabet x) ~start:(A.start x)
    ~finals:(List.filter mem (A.finals x))
    ~edges:(List.filter (fun (s, _, t) -> mem s && mem t) (A.edges x))
    ~ann:(List.filter (fun (q, _) -> mem q) (A.annotations x))
    ()

let test_reachability () =
  List.iter
    (fun (s, x) ->
      List.iter
        (fun q ->
          check_bool
            (Printf.sprintf "reachable_from (input %d, state %d)" s q)
            true
            (A.ISet.equal (naive_reachable x q) (A.reachable_from (A.copy x) q)))
        (absent_state x :: A.states x);
      check_bool
        (Printf.sprintf "coreachable (input %d)" s)
        true
        (A.ISet.equal (naive_coreachable x) (A.coreachable (A.copy x)));
      let reach = naive_reachable x (A.start x) in
      check_bool
        (Printf.sprintf "trim_unreachable (input %d)" s)
        true
        (A.structurally_equal (naive_restrict x reach)
           (A.trim_unreachable (A.copy x)));
      check_bool
        (Printf.sprintf "trim (input %d)" s)
        true
        (A.structurally_equal
           (naive_restrict x (A.ISet.inter reach (naive_coreachable x)))
           (A.trim (A.copy x))))
    (corpus ())

(* Completion by its definition: every (state, label) pair without an
   out-edge moves to a fresh sink that loops on every label. *)
let naive_complete ~over a =
  let a = A.widen_alphabet a over in
  let alpha = A.alphabet a in
  let missing =
    List.concat_map
      (fun q ->
        List.filter_map
          (fun l ->
            if C.Label.Set.mem l (A.out_symbols a q) then None else Some (q, l))
          alpha)
      (A.states a)
  in
  if missing = [] then a
  else
    let sink = 1 + List.fold_left max 0 (A.states a) in
    A.add_edges a
      (List.map (fun (q, l) -> (q, C.Sym.L l, sink)) missing
      @ List.map (fun l -> (sink, C.Sym.L l, sink)) alpha)

let test_complete () =
  let over = W.vocabulary 6 in
  List.iter
    (fun (s, x) ->
      let x = C.Determinize.determinize x in
      check_bool
        (Printf.sprintf "complete = naive (input %d)" s)
        true
        (A.structurally_equal
           (C.Complete.complete ~over (A.copy x))
           (naive_complete ~over x)))
    (corpus ())

(* Everything the automaton shows through its interface, each list in
   the order the accessor returns it. *)
let render x =
  let b = Buffer.create 1024 in
  let list f l = String.concat "," (List.map f l) in
  let ints = list string_of_int and labels = list C.Label.to_string in
  let set s = ints (A.ISet.elements s) in
  let sym = C.Sym.to_string in
  Printf.bprintf b "Q%s|A%s|q%d|F%s|N%s|D%s|" (ints (A.states x))
    (labels (A.alphabet x)) (A.start x) (ints (A.finals x))
    (list
       (fun (q, f) -> Printf.sprintf "%d:%s" q (C.Formula.Pp.to_string f))
       (A.annotations x))
    (list
       (fun (s, y, t) -> Printf.sprintf "%d-%s-%d" s (sym y) t)
       (A.edges x));
  List.iter
    (fun q ->
      Printf.bprintf b "o%d:%s/%s|" q
        (list (fun (y, t) -> Printf.sprintf "%s>%d" (sym y) t) (A.out_edges x q))
        (labels (C.Label.Set.elements (A.out_symbols x q)));
      List.iter
        (fun y -> Printf.bprintf b "s%d%s:%s|" q (sym y) (set (A.step x q y)))
        (syms_of x))
    (A.states x);
  Printf.bprintf b "e%b|d%b|r%s|c%s|t%s|f%s" (A.has_eps x)
    (A.is_deterministic x)
    (set (A.reachable_from x (A.start x)))
    (set (A.coreachable x))
    (C.Fingerprint.hex (A.trim x))
    (C.Fingerprint.hex x);
  Buffer.contents b

(* One MD5 over the rendering of the corpus inputs, their
   determinizations, ε-eliminations and minimizations, and the three
   products over [corpus_pairs]. Recorded before the automaton's
   representation changed: a new representation must show exactly the
   same automata through the same accessors. *)
let representation_pinned = "3bed9d367a6b7b81d2f9e387c2fcf706"

(* The corpus inputs, their determinizations, ε-eliminations and
   minimizations, and the three products over [corpus_pairs]. *)
let corpus_outputs () =
  let inputs = List.map snd (corpus ()) in
  let unary op = List.map (fun x -> op (A.copy x)) inputs in
  let binary op =
    List.map (fun (_, (a, b)) -> op (A.copy a) (A.copy b)) (corpus_pairs ())
  in
  inputs
  @ unary (fun x -> C.Determinize.determinize x)
  @ unary (fun x -> C.Epsilon.eliminate x)
  @ unary (fun x -> C.Minimize.minimize x)
  @ binary (fun a b -> C.Ops.intersect a b)
  @ binary (fun a b -> C.Ops.difference a b)
  @ binary (fun a b -> C.Ops.union a b)

let test_representation_pinned () =
  Alcotest.(check string)
    "rendering digest" representation_pinned
    (Digest.to_hex
       (Digest.string
          (String.concat "\n" (List.map render (corpus_outputs ())))))

(* ------------------------------------------------------------------ *)
(* Fingerprint writer                                                  *)
(* ------------------------------------------------------------------ *)

(* [Fingerprint.serialize] renders each state id and symbol once into
   a per-domain buffer; test/fingerprint_ref.ml keeps the [Buffer]
   serializer it replaced, and both must write the same bytes. *)
let writer_agrees name x =
  Alcotest.(check string)
    (name ^ ": serialization") (Fingerprint_ref.serialize x)
    (C.Fingerprint.serialize x);
  Alcotest.(check string)
    (name ^ ": digest")
    (Digest.string (Fingerprint_ref.serialize x))
    (C.Fingerprint.compute x)

let test_writer_corpus () =
  List.iteri
    (fun i x -> writer_agrees (Printf.sprintf "corpus output %d" i) x)
    (corpus_outputs ())

(* Every formula constructor. [make] simplifies annotations, so what
   reaches the writer is [False] or a formula over [Var], [Not], [And]
   and [Or], as in every automaton. *)
let rec random_formula rng d =
  let open C.Formula in
  match Random.State.int rng (if d = 0 then 3 else 6) with
  | 0 -> True
  | 1 -> False
  | 2 -> Var (Printf.sprintf "A#B#op%d" (Random.State.int rng 200))
  | 3 -> Not (random_formula rng (d - 1))
  | 4 -> And (random_formula rng (d - 1), random_formula rng (d - 1))
  | _ -> Or (random_formula rng (d - 1), random_formula rng (d - 1))

(* Labels of 5 to 130 bytes, so that length prefixes have one to
   three digits. *)
let random_label rng =
  let name () = String.make (1 + Random.State.int rng 60) 'p' in
  C.Label.make ~sender:(name ()) ~receiver:(name ())
    (Printf.sprintf "m%d" (Random.State.int rng 10))

(* Through [make]: negative, small and 10-digit state ids, ε-edges and
   long labels. *)
let writer_random_make seed =
  let rng = Random.State.make [| seed |] in
  let int k = Random.State.int rng k in
  let id () =
    match int 3 with
    | 0 -> int 40 - 20
    | 1 -> -1_000_000_000 - int 1_000_000
    | _ -> 1_000_000_000 + (int 1_000_000 * 1000)
  in
  let ids = Array.init (1 + int 8) (fun _ -> id ()) in
  let q () = ids.(int (Array.length ids)) in
  let labels = Array.init (1 + int 5) (fun _ -> random_label rng) in
  let sym () =
    if int 5 = 0 then C.Sym.Eps else C.Sym.L labels.(int (Array.length labels))
  in
  A.make
    ~alphabet:[ random_label rng ]
    ~start:(q ())
    ~finals:(List.init (int 4) (fun _ -> q ()))
    ~edges:(List.init (int 20) (fun _ -> (q (), sym (), q ())))
    ~ann:(List.init (int 4) (fun _ -> (q (), random_formula rng 3)))
    ()

let test_writer_random () =
  for seed = 0 to 599 do
    writer_agrees (Printf.sprintf "make seed %d" seed) (writer_random_make seed)
  done

(* The buffer is per domain: fingerprints taken on two domains at once
   equal those taken one after the other. *)
let test_writer_two_domains () =
  let xs =
    corpus_outputs ()
    @ List.init 400 writer_random_make
  in
  let sequential = List.map C.Fingerprint.compute xs in
  let on_domain () =
    Domain.spawn (fun () ->
        List.init 5 (fun _ -> List.map C.Fingerprint.compute xs))
  in
  let d1 = on_domain () and d2 = on_domain () in
  List.iter
    (fun runs ->
      List.iter
        (fun got ->
          check_bool "fingerprints on two domains = sequential" true
            (List.equal String.equal sequential got))
        runs)
    [ Domain.join d1; Domain.join d2 ]

(* ------------------------------------------------------------------ *)
(* Fuel                                                                *)
(* ------------------------------------------------------------------ *)

(* Fuel an unbounded run spends, per input: [difference_fuel] over the
   80 [pair_of_seed] pairs, the others over [corpus] in order. Recorded
   while the map-shaped kernels still ran next to the array ones —
   every kernel mode spent exactly these totals — so a change to any
   kernel's tick discipline shows up here. *)
let difference_fuel =
  [|
    9; 10; 2; 1; 14; 11; 7; 17; 10; 9; 6; 3; 8; 5; 14; 11; 4; 5; 13; 11;
    6; 7; 5; 6; 10; 10; 3; 13; 1; 2; 13; 4; 16; 4; 5; 7; 12; 7; 10; 1; 4;
    8; 18; 16; 8; 5; 7; 10; 15; 11; 12; 12; 6; 8; 3; 9; 13; 7; 13; 5; 8;
    8; 14; 8; 7; 13; 5; 6; 7; 5; 6; 3; 6; 5; 4; 9; 2; 25; 10; 4;
  |]

let emptiness_fuel =
  [|
    6; 6; 13; 15; 4; 4; 7; 7; 10; 10; 11; 11; 12; 12; 9; 9; 7; 7; 4; 4; 7;
    7; 12; 12; 11; 11; 13; 13; 7; 7; 15; 15; 7; 7; 7; 7; 10; 10; 13; 13;
    7; 7; 12; 12; 4; 4; 8; 8; 9; 9; 10; 10; 7; 7; 10; 10; 8; 8; 11; 11;
    10; 10; 7; 7; 14; 14; 10; 10; 7; 7; 8; 8; 9; 9; 17; 11; 10; 10; 10;
    10; 10; 10; 14; 14; 12; 12; 13; 13; 15; 15; 13; 13; 9; 9; 6; 11; 11;
    10; 17; 17; 10; 10; 9; 9; 11; 11; 10; 10; 11; 11; 8; 8; 13; 13; 12;
    12; 10; 10; 15; 15; 10; 10; 12; 12; 12; 12; 6; 6; 7; 7; 8; 8; 13; 13;
    13; 13; 11; 11; 15; 15; 8; 10; 9; 9; 10; 10; 13; 13; 9; 9; 12; 12; 12;
    12; 10; 10; 15; 15; 10; 10; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9;
    9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9;
    9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9;
    9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 2; 2; 4; 8;
  |]

let determinize_fuel =
  [|
    0; 10; 5; 10; 4; 6; 4; 6; 6; 11; 6; 13; 6; 10; 1; 6; 7; 6; 5; 10; 4;
    6; 3; 6; 7; 12; 6; 6; 1; 6; 7; 12; 2; 6; 9; 12; 0; 6; 7; 12; 1; 6; 6;
    12; 5; 10; 1; 6; 6; 12; 4; 12; 7; 6; 1; 6; 0; 12; 0; 12; 0; 6; 0; 6;
    6; 11; 1; 6; 3; 6; 3; 6; 7; 13; 9; 11; 5; 11; 0; 6; 6; 12; 0; 6; 3; 6;
    7; 14; 6; 12; 5; 12; 1; 6; 7; 11; 7; 11; 6; 10; 8; 6; 10; 13; 0; 14;
    1; 6; 7; 9; 3; 6; 8; 12; 5; 12; 7; 12; 4; 9; 4; 11; 8; 6; 1; 6; 6; 6;
    3; 9; 1; 6; 6; 12; 1; 6; 7; 13; 2; 6; 1; 6; 7; 14; 2; 6; 3; 9; 7; 10;
    1; 6; 4; 6; 2; 6; 5; 6; 0; 6; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
    0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
    0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
    0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0;
    3; 0;
  |]

let minimize_fuel =
  [|
    36; 40; 15; 17; 10; 12; 12; 13; 14; 16; 19; 23; 21; 16; 7; 12; 23; 15;
    11; 16; 11; 11; 6; 9; 23; 24; 19; 14; 2; 7; 23; 23; 20; 24; 27; 19; 5;
    8; 21; 24; 7; 12; 21; 26; 11; 16; 7; 12; 15; 18; 16; 20; 22; 15; 7;
    12; 9; 21; 10; 19; 12; 16; 3; 9; 14; 16; 7; 12; 7; 10; 3; 6; 22; 24;
    24; 18; 13; 18; 42; 24; 21; 23; 12; 15; 10; 11; 23; 30; 21; 23; 16;
    22; 2; 7; 26; 23; 23; 22; 18; 17; 26; 15; 30; 23; 16; 25; 7; 12; 20;
    13; 27; 30; 25; 23; 17; 23; 21; 19; 11; 14; 14; 22; 21; 15; 13; 18; 9;
    8; 8; 13; 13; 18; 20; 23; 1; 6; 17; 20; 6; 9; 13; 18; 24; 30; 20; 24;
    8; 12; 24; 18; 7; 12; 9; 11; 2; 6; 15; 13; 10; 14; 17; 18; 17; 18; 18;
    16; 17; 16; 17; 18; 17; 18; 16; 17; 18; 18; 18; 17; 17; 15; 18; 18;
    16; 17; 16; 18; 16; 18; 18; 16; 18; 17; 18; 18; 17; 17; 18; 17; 17;
    17; 17; 18; 16; 17; 17; 16; 15; 17; 17; 15; 16; 18; 17; 18; 18; 17;
    17; 18; 15; 17; 17; 18; 18; 17; 18; 17; 18; 18; 17; 18; 16; 17; 17;
    17; 17; 17; 18; 18; 17; 18; 0; 1; 5; 4;
  |]

(* [op x] under [budget]: the outcome and the fuel spent. *)
let fueled op x budget =
  let r = B.run budget (fun () -> op x) in
  (r, B.spent budget)

let total op x = snd (fueled op x (B.create ()))

let check_totals name op inputs recorded =
  check_int (name ^ ": recorded totals") (Array.length recorded)
    (List.length inputs);
  List.iteri
    (fun i (s, x) ->
      check_int
        (Printf.sprintf "%s: fuel total (input %d)" name s)
        recorded.(i) (total op x))
    inputs

(* At every fuel level up to one past the total, [op] trips exactly at
   the bound ([`Exceeded] spending all of it) or finishes with the
   unbounded result; with a [reference], it also matches the reference
   run at the same fuel — same outcome, same trip point, same spend. *)
let fuel_sweep ~equal ?reference name op inputs =
  List.iter
    (fun (s, x) ->
      let full = total op x in
      let unbounded =
        match fueled op x (B.create ()) with
        | `Done d, _ -> d
        | `Exceeded _, _ -> Alcotest.failf "%s: unbounded run tripped" name
      in
      List.iter
        (fun fuel ->
          let at = Printf.sprintf "%s at fuel %d (input %d)" name fuel s in
          let r, spent = fueled op x (B.create ~fuel ()) in
          (match reference with
          | None -> ()
          | Some reference -> (
              let r', spent' = fueled reference x (B.create ~fuel ()) in
              check_int (at ^ ": spent = reference") spent' spent;
              match (r, r') with
              | `Done d, `Done d' ->
                  check_bool (at ^ ": result = reference") true (equal d d')
              | `Exceeded i, `Exceeded i' ->
                  check_bool (at ^ ": reason = reference") true
                    (i.B.reason = i'.B.reason);
                  check_int (at ^ ": trip = reference") i'.B.spent i.B.spent
              | _ -> Alcotest.failf "%s: diverges from reference" at));
          match r with
          | `Done d ->
              check_int (at ^ ": spent") full spent;
              check_bool (at ^ ": result = unbounded") true (equal d unbounded)
          | `Exceeded i ->
              check_bool (at ^ ": trips only below the total") true
                (fuel < full);
              check_bool (at ^ ": fuel trip") true (i.B.reason = `Fuel);
              check_int (at ^ ": trip spent") fuel i.B.spent)
        (List.init (full + 1) (fun i -> i + 1)))
    inputs

let sweep_inputs () = List.filteri (fun i _ -> i mod 10 = 0) (corpus ())
let on_copy op x = op (A.copy x)
let determinize = on_copy (fun x -> C.Determinize.determinize x)
let minimize = on_copy (fun x -> C.Minimize.minimize x)
let emptiness = on_copy (fun x -> C.Emptiness.analyze x)

let test_fuel_determinize () =
  check_totals "determinize" determinize (corpus ()) determinize_fuel;
  fuel_sweep ~equal:A.structurally_equal
    ~reference:(on_copy (fun x -> C.Ablation.determinize_ref x))
    "determinize" determinize (sweep_inputs ())

let test_fuel_eliminate () =
  fuel_sweep ~equal:A.structurally_equal
    ~reference:(on_copy (fun x -> C.Ablation.eliminate_ref x))
    "eliminate"
    (on_copy (fun x -> C.Epsilon.eliminate x))
    (sweep_inputs ())

let test_fuel_binops () =
  let difference (a, b) = C.Ops.difference (A.copy a) (A.copy b) in
  let pairs = List.init 80 (fun s -> (s, pair_of_seed s)) in
  check_totals "difference" difference pairs difference_fuel;
  fuel_sweep ~equal:A.structurally_equal "difference" difference
    (List.filter (fun (s, _) -> List.mem s [ 0; 7; 23 ]) pairs)

(* [agree] compares annotated languages only. These pin each binary
   operation's exact output (the MD5 of its results' concatenated
   fingerprints: pair numbering, edges, finals, annotations) and its
   total fuel over [seed_pairs] then [corpus_pairs], recorded before
   intersection, difference and union shared one product kernel. *)
let products_pinned =
  [
    ( "intersect",
      (fun a b -> C.Ops.intersect a b),
      "92f9601fc7b36aac870102dc39c39337",
      1831 );
    ( "difference",
      (fun a b -> C.Ops.difference a b),
      "3c8c6b5e2fede77bb93d54f25b4cbe57",
      4406 );
    ( "union",
      (fun a b -> C.Ops.union a b),
      "9a3678f0e78d5ffcb3849faa24cd1181",
      7282 );
  ]

let test_products_pinned () =
  let pairs = List.map snd (seed_pairs () @ corpus_pairs ()) in
  List.iter
    (fun (name, op, digest, fuel) ->
      let op (a, b) = op (A.copy a) (A.copy b) in
      let spent = ref 0 in
      let hex x =
        match fueled op x (B.create ()) with
        | `Done r, n ->
            spent := !spent + n;
            C.Fingerprint.hex r
        | `Exceeded _, _ -> Alcotest.failf "%s: unbounded run tripped" name
      in
      let hexes = String.concat "" (List.map hex pairs) in
      Alcotest.(check string)
        (name ^ ": fingerprints") digest
        (Digest.to_hex (Digest.string hexes));
      check_int (name ^ ": fuel") fuel !spent)
    products_pinned

let test_fuel_emptiness () =
  check_totals "emptiness" emptiness (corpus ()) emptiness_fuel;
  fuel_sweep
    ~equal:(fun r r' ->
      A.ISet.equal r.C.Emptiness.sat r'.C.Emptiness.sat
      && r.C.Emptiness.iterations = r'.C.Emptiness.iterations)
    "emptiness" emptiness (sweep_inputs ())

let test_fuel_minimize () =
  check_totals "minimize" minimize (corpus ()) minimize_fuel;
  fuel_sweep ~equal:A.structurally_equal "minimize" minimize (sweep_inputs ())

(* Fuel trips must also be identical across pool sizes: the evolution
   pipeline mints op budgets inside pool tasks, so a fueled run's
   degradations are a deterministic function of the model — not of the
   schedule. *)
let test_fuel_pool_parity () =
  let model =
    C.Choreography.Model.of_processes
      (List.map snd C.Scenario.Procurement.parties)
  in
  let run jobs =
    let config =
      {
        C.Config.default with
        op_budget = { B.spec_unlimited with fuel = Some 200 };
      }
    in
    Harness.with_jobs jobs @@ fun () ->
    match
      C.Choreography.Evolution.run ~config model ~owner:"A"
        ~changed:C.Scenario.Procurement.accounting_cancel
    with
    | Ok r ->
        ( r.C.Choreography.Evolution.consistent,
          List.map
            (fun (rd : C.Choreography.Evolution.round) ->
              ( rd.originator,
                rd.public_changed,
                List.map
                  (fun (p : C.Choreography.Evolution.partner_report) ->
                    ( p.partner,
                      p.verdict,
                      Option.is_some p.outcome,
                      List.length p.degraded ))
                  rd.partners ))
            r.C.Choreography.Evolution.rounds )
    | Error (`Unknown_party p) -> Alcotest.failf "unknown party %s" p
  in
  let reference = run 1 in
  List.iter
    (fun jobs ->
      check_bool
        (Printf.sprintf "fueled run equal (jobs=%d)" jobs)
        true
        (run jobs = reference))
    [ 2; 8 ]

let () =
  Alcotest.run "perf_equiv"
    [
      ( "algebra vs reference",
        [
          Alcotest.test_case "intersect" `Quick test_intersect_agrees;
          Alcotest.test_case "difference" `Quick test_difference_agrees;
          Alcotest.test_case "union" `Quick test_union_agrees;
        ] );
      ( "emptiness",
        [ Alcotest.test_case "fixpoint parity" `Quick test_emptiness_parity ] );
      ( "minimize vs reference",
        [
          Alcotest.test_case "random" `Quick test_minimize_random_agrees;
          Alcotest.test_case "protocols structural" `Quick
            test_minimize_protocol_structural;
          Alcotest.test_case "annotated deterministic" `Quick
            test_minimize_annotated_det;
          Alcotest.test_case "edge cases" `Quick test_minimize_edge_cases;
        ] );
      ( "pool invariance",
        [
          Alcotest.test_case "check_all" `Quick test_check_all_pool_invariant;
          Alcotest.test_case "evolution" `Quick test_evolution_pool_invariant;
        ] );
      ( "deep products",
        [
          Alcotest.test_case "ladder 400" `Quick test_ladder_400_no_overflow;
        ] );
      ( "differential",
        [
          Alcotest.test_case "determinize" `Quick test_determinize;
          Alcotest.test_case "eliminate" `Quick test_eliminate;
          Alcotest.test_case "minimize" `Quick test_minimize;
          Alcotest.test_case "intersect" `Quick test_corpus_intersect;
          Alcotest.test_case "difference" `Quick test_corpus_difference;
          Alcotest.test_case "union" `Quick test_corpus_union;
          Alcotest.test_case "emptiness" `Quick test_corpus_emptiness;
          Alcotest.test_case "closures" `Quick test_closures;
          Alcotest.test_case "reachability and trims" `Quick test_reachability;
          Alcotest.test_case "complete" `Quick test_complete;
          Alcotest.test_case "representation pinned" `Quick
            test_representation_pinned;
        ] );
      ( "fingerprint writer",
        [
          Alcotest.test_case "corpus and kernel outputs" `Quick
            test_writer_corpus;
          Alcotest.test_case "random automata" `Quick test_writer_random;
          Alcotest.test_case "two domains at once" `Quick
            test_writer_two_domains;
        ] );
      ( "fuel parity",
        [
          Alcotest.test_case "determinize" `Quick test_fuel_determinize;
          Alcotest.test_case "eliminate" `Quick test_fuel_eliminate;
          Alcotest.test_case "binops" `Quick test_fuel_binops;
          Alcotest.test_case "products pinned" `Quick test_products_pinned;
          Alcotest.test_case "emptiness" `Quick test_fuel_emptiness;
          Alcotest.test_case "minimize" `Quick test_fuel_minimize;
          Alcotest.test_case "pool sizes 1/2/8" `Quick test_fuel_pool_parity;
        ] );
    ]
