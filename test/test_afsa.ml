(* Core aFSA structure, ε-elimination, determinization, completion and
   minimization. *)

module C = Chorev
module A = C.Afsa
module F = C.Formula

let afsa ?ann ?alphabet ~start ~finals edges =
  A.of_strings ?alphabet ~start ~finals ~edges ?ann ()

let l s = C.Label.of_string_exn s
let word = List.map l

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --------------------------- construction ------------------------- *)

let test_make () =
  let a = afsa ~start:0 ~finals:[ 2 ] [ (0, "A#B#x", 1); (1, "B#A#y", 2) ] in
  check_int "states" 3 (A.num_states a);
  check_int "edges" 2 (A.num_edges a);
  check_int "start" 0 (A.start a);
  check_bool "final" true (A.is_final a 2);
  check_bool "not final" false (A.is_final a 0);
  check_int "alphabet" 2 (List.length (A.alphabet a));
  check_bool "deterministic" true (A.is_deterministic a)

let test_annotations () =
  let a =
    afsa ~start:0 ~finals:[ 1 ]
      [ (0, "A#B#x", 1) ]
      ~ann:[ (0, F.var "A#B#x"); (1, F.True) ]
  in
  check_bool "ann set" true (F.equal (A.annotation a 0) (F.var "A#B#x"));
  check_bool "true ann dropped" true (F.equal (A.annotation a 1) F.True);
  check_bool "has ann" true (A.has_annotations a);
  let b = A.clear_annotations a in
  check_bool "cleared" false (A.has_annotations b);
  (* of several entries for one state the last non-[True] one wins; a
     state only annotated [True] is still a state *)
  let c =
    afsa ~start:0 ~finals:[ 1 ]
      [ (0, "A#B#x", 1) ]
      ~ann:
        [
          (0, F.var "A#B#x"); (0, F.var "A#B#y"); (0, F.True); (5, F.True);
        ]
  in
  check_bool "last non-true wins" true
    (F.equal (A.annotation c 0) (F.var "A#B#y"));
  check_bool "true-annotated state kept" true (List.mem 5 (A.states c))

let test_step_out () =
  let a =
    afsa ~start:0 ~finals:[ 2 ]
      [ (0, "A#B#x", 1); (0, "A#B#x", 2); (0, "", 2); (1, "B#A#y", 2) ]
  in
  check_bool "nondeterministic" false (A.is_deterministic a);
  check_bool "has eps" true (A.has_eps a);
  check_int "step targets" 2
    (A.ISet.cardinal (A.step a 0 (C.Sym.L (l "A#B#x"))));
  check_int "out edges" 3 (List.length (A.out_edges a 0));
  check_int "out symbols" 1 (C.Label.Set.cardinal (A.out_symbols a 0))

let test_reachability_trim () =
  let a =
    afsa ~start:0 ~finals:[ 2 ]
      [ (0, "A#B#x", 1); (1, "B#A#y", 2); (3, "A#B#x", 2); (1, "A#B#z", 4) ]
  in
  (* 3 unreachable; 4 dead *)
  check_int "reachable" 4 (A.ISet.cardinal (A.reachable_from a 0));
  let t = A.trim a in
  check_int "trimmed states" 3 (A.num_states t);
  check_bool "kept language" true (C.Trace.accepts t (word [ "A#B#x"; "B#A#y" ]))

let test_renumber () =
  let a = afsa ~start:5 ~finals:[ 9 ] [ (5, "A#B#x", 9) ] in
  let b, _ = A.renumber a in
  check_int "start is 0" 0 (A.start b);
  check_bool "same language" true (C.Trace.accepts b (word [ "A#B#x" ]))

let test_structural_equal () =
  let a = afsa ~start:0 ~finals:[ 1 ] [ (0, "A#B#x", 1) ] in
  let b = afsa ~start:0 ~finals:[ 1 ] [ (0, "A#B#x", 1) ] in
  let c = afsa ~start:0 ~finals:[ 1 ] [ (0, "A#B#y", 1) ] in
  check_bool "equal" true (A.structurally_equal a b);
  check_bool "not equal" false (A.structurally_equal a c)

(* ------------------------------ labels ---------------------------- *)

let test_label_parse () =
  check_bool "ok" true (Result.is_ok (C.Label.of_string "A#B#m"));
  check_bool "two segments" true (Result.is_error (C.Label.of_string "A#B"));
  check_bool "four segments" true
    (Result.is_error (C.Label.of_string "A#B#m#x"));
  check_bool "empty sender" true (Result.is_error (C.Label.of_string "#B#m"));
  check_bool "empty msg" true (Result.is_error (C.Label.of_string "A#B#"));
  let lb = l "A#B#m" in
  Alcotest.(check string) "roundtrip" "A#B#m" (C.Label.to_string lb);
  check_bool "involves A" true (C.Label.involves "A" lb);
  check_bool "involves B" true (C.Label.involves "B" lb);
  check_bool "not C" false (C.Label.involves "C" lb);
  check_bool "counterparty" true (C.Label.counterparty "A" lb = Some "B");
  check_bool "counterparty none" true (C.Label.counterparty "X" lb = None)

let test_sym () =
  check_bool "eps" true (C.Sym.is_eps C.Sym.eps);
  check_bool "label not eps" false (C.Sym.is_eps (C.Sym.label (l "A#B#m")));
  check_bool "to_label" true (C.Sym.to_label C.Sym.eps = None);
  Alcotest.(check string) "to_string" "ε" (C.Sym.to_string C.Sym.eps);
  Alcotest.(check string)
    "label string" "A#B#m"
    (C.Sym.to_string (C.Sym.of_label_string "A#B#m"))

let test_modification () =
  let a = afsa ~start:0 ~finals:[ 1 ] [ (0, "A#B#x", 1) ] in
  let a = A.add_edge a (1, C.Sym.L (l "B#A#y"), 0) in
  check_int "edge added" 2 (A.num_edges a);
  check_int "alphabet widened by edge" 2 (List.length (A.alphabet a));
  let a = A.widen_alphabet a [ l "A#B#z" ] in
  check_int "alphabet widened" 3 (List.length (A.alphabet a));
  let a = A.set_annotation a 0 (F.var "A#B#x") in
  check_bool "ann set" true (A.has_annotations a);
  let a = A.set_annotation a 0 F.True in
  check_bool "true ann removes entry" false (A.has_annotations a);
  let a = A.set_finals a [ 0 ] in
  check_bool "finals replaced" true (A.is_final a 0 && not (A.is_final a 1))

let test_coreachable () =
  let a =
    afsa ~start:0 ~finals:[ 2 ]
      [ (0, "A#B#x", 1); (1, "A#B#x", 2); (0, "A#B#y", 3) ]
  in
  let co = A.coreachable a in
  check_bool "0,1,2 coreachable" true
    (A.ISet.mem 0 co && A.ISet.mem 1 co && A.ISet.mem 2 co);
  check_bool "3 dead" false (A.ISet.mem 3 co)

(* ------------------------------ epsilon --------------------------- *)

let test_eps_closure () =
  let a =
    afsa ~start:0 ~finals:[ 3 ]
      [ (0, "", 1); (1, "", 2); (2, "A#B#x", 3); (1, "A#B#y", 3) ]
  in
  let cl = C.Epsilon.closure_of a 0 in
  check_int "closure size" 3 (A.ISet.cardinal cl)

let test_eps_eliminate () =
  let a =
    afsa ~start:0 ~finals:[ 2 ]
      [ (0, "", 1); (1, "A#B#x", 2); (2, "", 0) ]
      ~ann:[ (1, F.var "A#B#x") ]
  in
  let e = C.Epsilon.eliminate a in
  check_bool "no eps" false (A.has_eps e);
  check_bool "accepts x" true (C.Trace.accepts e (word [ "A#B#x" ]));
  check_bool "accepts xx" true (C.Trace.accepts e (word [ "A#B#x"; "A#B#x" ]));
  check_bool "rejects empty? no: final via eps" true
    (C.Trace.accepts e []= false);
  (* state 0 inherits state 1's annotation through the ε-closure *)
  check_bool "ann merged" true (F.equal (A.annotation e 0) (F.var "A#B#x"))

let test_eps_final_through_closure () =
  let a = afsa ~start:0 ~finals:[ 1 ] [ (0, "", 1) ] in
  let e = C.Epsilon.eliminate a in
  check_bool "empty word accepted" true (C.Trace.accepts e [])

(* ---------------------------- determinize ------------------------- *)

let test_determinize () =
  let a =
    afsa ~start:0 ~finals:[ 2 ]
      [ (0, "A#B#x", 1); (0, "A#B#x", 2); (1, "B#A#y", 2) ]
  in
  let d = C.Determinize.determinize a in
  check_bool "deterministic" true (A.is_deterministic d);
  check_bool "accepts x" true (C.Trace.accepts d (word [ "A#B#x" ]));
  check_bool "accepts xy" true (C.Trace.accepts d (word [ "A#B#x"; "B#A#y" ]));
  check_bool "rejects y" false (C.Trace.accepts d (word [ "B#A#y" ]))

let test_determinize_ann_disjunction () =
  (* two ndet targets with different annotations: subset gets the ∨ *)
  let a =
    afsa ~start:0 ~finals:[ 3 ]
      [ (0, "A#B#x", 1); (0, "A#B#x", 2); (1, "A#B#y", 3); (2, "A#B#z", 3) ]
      ~ann:[ (1, F.var "A#B#y"); (2, F.var "A#B#z") ]
  in
  let d = C.Determinize.determinize a in
  (* the state reached on x must carry y ∨ z *)
  let q = A.ISet.choose (A.step d (A.start d) (C.Sym.L (l "A#B#x"))) in
  check_bool "subset annotation is disjunction" true
    (C.Formula.Sat.equivalent (A.annotation d q)
       (F.or_ (F.var "A#B#y") (F.var "A#B#z")))

(* ----------------------------- complete --------------------------- *)

let test_complete () =
  let a = afsa ~start:0 ~finals:[ 1 ] [ (0, "A#B#x", 1) ] in
  check_bool "incomplete" false (C.Complete.is_complete a);
  let c = C.Complete.complete ~over:[ l "B#A#y" ] a in
  check_bool "complete" true (C.Complete.is_complete c);
  check_bool "language preserved +" true (C.Trace.accepts c (word [ "A#B#x" ]));
  check_bool "language preserved -" false (C.Trace.accepts c (word [ "B#A#y" ]));
  (* completing twice is stable *)
  check_int "idempotent size" (A.num_states c)
    (A.num_states (C.Complete.complete c))

(* ----------------------------- minimize --------------------------- *)

let test_minimize_merges () =
  (* two equivalent final states *)
  let a =
    afsa ~start:0 ~finals:[ 1; 2 ]
      [ (0, "A#B#x", 1); (0, "B#A#y", 2) ]
  in
  let m = C.Minimize.minimize a in
  check_int "merged finals" 2 (A.num_states m);
  check_bool "lang x" true (C.Trace.accepts m (word [ "A#B#x" ]));
  check_bool "lang y" true (C.Trace.accepts m (word [ "B#A#y" ]))

let test_minimize_respects_annotations () =
  (* same structure but different annotations must NOT merge *)
  let a =
    afsa ~start:0 ~finals:[ 1; 2 ]
      [ (0, "A#B#x", 1); (0, "B#A#y", 2) ]
      ~ann:[ (1, F.var "A#B#x") ]
  in
  let m = C.Minimize.minimize a in
  check_int "not merged" 3 (A.num_states m)

let test_minimize_idempotent () =
  let a =
    afsa ~start:0 ~finals:[ 3 ]
      [
        (0, "A#B#x", 1);
        (1, "B#A#y", 2);
        (2, "A#B#x", 3);
        (0, "A#B#z", 3);
        (3, "A#B#z", 3);
      ]
  in
  let m1 = C.Minimize.minimize a in
  let m2 = C.Minimize.minimize m1 in
  check_bool "idempotent (canonical)" true (A.structurally_equal m1 m2)

let test_minimize_loop () =
  (* unrolled loop minimizes to a single loop state *)
  let a =
    afsa ~start:0 ~finals:[ 2 ]
      [ (0, "A#B#x", 1); (1, "A#B#x", 0); (0, "B#A#e", 2); (1, "B#A#e", 2) ]
  in
  let m = C.Minimize.minimize a in
  check_int "folded" 2 (A.num_states m);
  check_bool "xxe" true (C.Trace.accepts m (word [ "A#B#x"; "A#B#x"; "B#A#e" ]))

(* ------------------------------ traces ---------------------------- *)

let test_traces () =
  let a =
    afsa ~start:0 ~finals:[ 1 ] [ (0, "A#B#x", 1); (1, "A#B#x", 1) ]
  in
  check_bool "accepts" true (C.Trace.accepts a (word [ "A#B#x"; "A#B#x" ]));
  check_bool "rejects empty" false (C.Trace.accepts a []);
  (match C.Trace.shortest a with
  | Some w -> check_int "shortest length" 1 (List.length w)
  | None -> Alcotest.fail "expected a word");
  let ws = C.Trace.enumerate ~max_len:3 a in
  check_int "enumerated" 3 (List.length ws)

let test_dot () =
  let a =
    afsa ~start:0 ~finals:[ 1 ]
      [ (0, "A#B#x", 1) ]
      ~ann:[ (0, F.var "A#B#x") ]
  in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  let dot = C.Dot.to_dot a in
  check_bool "contains digraph" true (String.sub dot 0 7 = "digraph");
  check_bool "mentions label" true (contains dot "label=\"x\"");
  check_bool "final double circle" true (contains dot "doublecircle");
  check_bool "annotation box" true (contains dot "shape=box")

(* --------------------------- make vs the ref ---------------------- *)

(* [Afsa.make]'s arguments in every shape its callers use and more: an
   alphabet left out, unsorted or with repeats, edge labels missing
   from it; duplicate edges and finals; ε-edges; a hub state whose row
   of 17 to 46 entries is longer than any workload's; dense, sparse,
   negative and 10-digit state ids; annotations, some on states nothing
   else mentions. *)
let random_make_input seed =
  let rng = Random.State.make [| seed |] in
  let int k = Random.State.int rng k in
  let pool =
    Array.init 14 (fun i ->
        C.Label.make
          ~sender:[| "A"; "B"; "Cc" |].(i mod 3)
          ~receiver:[| "B"; "A"; "D" |].(i mod 3)
          (Printf.sprintf "m%d" (i * 7 mod 10)))
  in
  let nstates = 1 + int 12 in
  let ids =
    match int 4 with
    | 0 -> Array.init nstates Fun.id
    | 1 -> Array.init nstates (fun i -> (1000 * i) + int 900)
    | 2 -> Array.init nstates (fun i -> (i * 3) - 20)
    | _ -> Array.init nstates (fun i -> 9_000_000_000 + (i * 1_000_003) + int 7)
  in
  let q () = ids.(int nstates) in
  let sym () = if int 6 = 0 then C.Sym.Eps else C.Sym.L pool.(int 14) in
  let edges = List.init (int 30) (fun _ -> (q (), sym (), q ())) in
  let hub =
    if int 3 = 0 then
      let h = q () in
      List.init (17 + int 30) (fun _ -> (h, sym (), q ()))
    else []
  in
  let edges = edges @ hub @ List.filteri (fun i _ -> i mod 4 = 0) edges in
  let alphabet =
    match int 4 with
    | 0 -> None
    | 1 -> Some (List.sort_uniq C.Label.compare (List.init (int 14) (fun _ -> pool.(int 14))))
    | _ -> Some (List.init (int 20) (fun _ -> pool.(int 14)))
  in
  let finals = List.init (int 5) (fun _ -> q ()) in
  let finals = finals @ finals in
  let formula () =
    match int 5 with
    | 0 -> F.True
    | 1 -> F.False
    | 2 -> F.var (C.Label.to_string pool.(int 14))
    | 3 -> F.not_ (F.var "A#B#m1")
    | _ -> F.or_ (F.var "A#B#m1") (F.and_ (F.var "B#A#m8") (F.var "Cc#D#m4"))
  in
  let loner () = if int 2 = 0 then q () else ids.(0) - 1 - int 50 in
  let ann = List.init (int 6) (fun _ -> (loner (), formula ())) in
  (alphabet, ids.(int nstates), finals, edges, ann)

(* Which of [random_make_input]'s cases an input hits. *)
let make_cases (alphabet, start, finals, edges, ann) =
  let given = Option.value ~default:[] alphabet in
  let rec ascending = function
    | a :: (b :: _ as rest) -> C.Label.compare a b < 0 && ascending rest
    | _ -> true
  in
  let mentioned q =
    q = start || List.mem q finals
    || List.exists (fun (s, _, t) -> s = q || t = q) edges
  in
  let longest_row =
    List.fold_left
      (fun m (s, _, _) ->
        max m
          (List.length
             (List.filter (fun (s', y, _) -> s' = s && not (C.Sym.is_eps y)) edges)))
      0 edges
  in
  let ids = start :: List.concat_map (fun (s, _, t) -> [ s; t ]) edges in
  [
    ("unsorted or repeated alphabet", not (ascending given));
    ( "edge label missing from a given alphabet",
      alphabet <> None
      && List.exists
           (function
             | _, C.Sym.L l, _ -> not (List.exists (C.Label.equal l) given)
             | _ -> false)
           edges );
    ("duplicate edge", List.length (List.sort_uniq compare edges) < List.length edges);
    ("duplicate final", List.length (List.sort_uniq compare finals) < List.length finals);
    ("row of at most 16 entries", longest_row > 1 && longest_row <= 16);
    ("row of more than 16 entries", longest_row > 16);
    ("negative id", List.exists (fun q -> q < 0) ids);
    ("10-digit id", List.exists (fun q -> q >= 1_000_000_000) ids);
    ("sparse ids", List.exists (fun q -> q >= 1000 && q < 1_000_000_000) ids);
    ( "annotation on an otherwise unmentioned state",
      List.exists (fun (q, f) -> (not (F.equal f F.True)) && not (mentioned q)) ann );
  ]

let test_make_matches_ref () =
  let hits = Hashtbl.create 16 in
  for seed = 0 to 499 do
    let ((alphabet, start, finals, edges, ann) as input) =
      random_make_input seed
    in
    List.iter
      (fun (case, hit) -> if hit then Hashtbl.replace hits case ())
      (make_cases input);
    let made = A.make ?alphabet ~start ~finals ~edges ~ann () in
    let ref_parts = Afsa_make_ref.make ?alphabet ~start ~finals ~edges ~ann () in
    check_bool
      (Printf.sprintf "seed %d: structurally equal to the ref" seed)
      true
      (Fingerprint_ref.equal_parts ref_parts (Fingerprint_ref.parts made));
    Alcotest.(check string)
      (Printf.sprintf "seed %d: same serialization as the ref" seed)
      (Fingerprint_ref.serialize_parts ref_parts)
      (C.Fingerprint.serialize made)
  done;
  List.iter
    (fun (case, _) -> check_bool ("covered: " ^ case) true (Hashtbl.mem hits case))
    (make_cases (None, 0, [], [], []))

let () =
  Alcotest.run "afsa"
    [
      ( "core",
        [
          Alcotest.test_case "make" `Quick test_make;
          Alcotest.test_case "annotations" `Quick test_annotations;
          Alcotest.test_case "step/out" `Quick test_step_out;
          Alcotest.test_case "reachability/trim" `Quick test_reachability_trim;
          Alcotest.test_case "renumber" `Quick test_renumber;
          Alcotest.test_case "structural equality" `Quick test_structural_equal;
          Alcotest.test_case "make = ref, 500 random inputs" `Quick
            test_make_matches_ref;
        ] );
      ( "labels",
        [
          Alcotest.test_case "parse" `Quick test_label_parse;
          Alcotest.test_case "sym" `Quick test_sym;
          Alcotest.test_case "modification" `Quick test_modification;
          Alcotest.test_case "coreachable" `Quick test_coreachable;
        ] );
      ( "epsilon",
        [
          Alcotest.test_case "closure" `Quick test_eps_closure;
          Alcotest.test_case "eliminate" `Quick test_eps_eliminate;
          Alcotest.test_case "final via closure" `Quick
            test_eps_final_through_closure;
        ] );
      ( "determinize",
        [
          Alcotest.test_case "subset construction" `Quick test_determinize;
          Alcotest.test_case "annotation disjunction" `Quick
            test_determinize_ann_disjunction;
        ] );
      ("complete", [ Alcotest.test_case "completion" `Quick test_complete ]);
      ( "minimize",
        [
          Alcotest.test_case "merges equivalent states" `Quick
            test_minimize_merges;
          Alcotest.test_case "respects annotations" `Quick
            test_minimize_respects_annotations;
          Alcotest.test_case "idempotent" `Quick test_minimize_idempotent;
          Alcotest.test_case "folds loops" `Quick test_minimize_loop;
        ] );
      ( "traces",
        [
          Alcotest.test_case "accept/enumerate/shortest" `Quick test_traces;
          Alcotest.test_case "dot export" `Quick test_dot;
        ] );
    ]
