(* Persistence round-trips: formula text, aFSA text format, process
   s-expressions. *)

module C = Chorev
module F = C.Formula
module P = C.Scenario.Procurement

let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ----------------------------- formulas ---------------------------- *)

let fparse = Chorev_formula.Parse.of_string_exn

let test_formula_parse_basics () =
  check_bool "var" true (F.equal (fparse "B#A#orderOp") (F.var "B#A#orderOp"));
  check_bool "and" true
    (F.equal (fparse "a AND b") (F.And (F.Var "a", F.Var "b")));
  check_bool "precedence" true
    (F.Sat.equivalent (fparse "a OR b AND c")
       (F.or_ (F.var "a") (F.and_ (F.var "b") (F.var "c"))));
  check_bool "parens" true
    (F.Sat.equivalent (fparse "(a OR b) AND c")
       (F.and_ (F.or_ (F.var "a") (F.var "b")) (F.var "c")));
  check_bool "not" true (F.equal (fparse "NOT a") (F.Not (F.Var "a")));
  check_bool "constants" true
    (F.equal (fparse "true") F.True && F.equal (fparse "false") F.False)

let test_formula_parse_errors () =
  let bad s = Result.is_error (Chorev_formula.Parse.of_string s) in
  check_bool "unbalanced" true (bad "(a AND b");
  check_bool "dangling op" true (bad "a AND");
  check_bool "leading op" true (bad "AND a");
  check_bool "trailing" true (bad "a b");
  check_bool "empty" true (bad "")

let gen_formula =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           if n <= 1 then
             oneof
               [
                 return F.True;
                 return F.False;
                 map (fun i -> F.Var (Printf.sprintf "A#B#v%dOp" i)) (int_bound 4);
               ]
           else
             frequency
               [
                 (1, map (fun f -> F.Not f) (self (n / 2)));
                 (2, map2 (fun a b -> F.And (a, b)) (self (n / 2)) (self (n / 2)));
                 (2, map2 (fun a b -> F.Or (a, b)) (self (n / 2)) (self (n / 2)));
               ]))

let prop_formula_roundtrip =
  QCheck.Test.make ~name:"pp → parse round-trips (semantically)" ~count:300
    (QCheck.make ~print:F.Pp.to_string gen_formula) (fun f ->
      F.Sat.equivalent f (fparse (F.Pp.to_string f)))

(* ------------------------------ aFSAs ------------------------------ *)

module S = Chorev_afsa.Serialize

let test_afsa_roundtrip_scenario () =
  List.iter
    (fun (name, a) ->
      let b = S.of_string_exn (S.to_string a) in
      check_bool (name ^ " round-trips") true (C.Afsa.structurally_equal a b))
    [
      ("buyer", C.Public_gen.public P.buyer_process);
      ("accounting", C.Public_gen.public P.accounting_process);
      ("fig5a", C.Scenario.Fig5.party_a);
      ("fig5b", C.Scenario.Fig5.party_b);
      ("intersection", C.Scenario.Fig5.intersection ());
    ]

let test_afsa_eps_roundtrip () =
  let a =
    C.Afsa.of_strings ~start:0 ~finals:[ 1 ]
      ~edges:[ (0, "", 1); (1, "A#B#x", 0) ]
      ()
  in
  check_bool "eps round-trips" true
    (C.Afsa.structurally_equal a (S.of_string_exn (S.to_string a)))

let test_afsa_parse_errors () =
  let bad s = Result.is_error (S.of_string s) in
  check_bool "empty" true (bad "");
  check_bool "bad header" true (bad "nope v1\nstart 0");
  check_bool "missing start" true (bad "afsa v1\nfinals 0");
  check_bool "garbage line" true (bad "afsa v1\nstart 0\nwhatever");
  check_bool "bad edge" true (bad "afsa v1\nstart 0\nedge x y z");
  check_bool "bad alphabet label" true
    (bad "afsa v1\nalphabet A#B#x bogus\nstart 0")

let prop_afsa_roundtrip =
  QCheck.Test.make ~name:"random aFSA serialize round-trips" ~count:100
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000))
    (fun seed ->
      let a = C.Workload.Gen_afsa.random ~seed ~states:7 () in
      C.Afsa.structurally_equal a (S.of_string_exn (S.to_string a)))

let test_afsa_file () =
  let a = C.Public_gen.public P.buyer_process in
  let path = Filename.temp_file "chorev" ".afsa" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      S.to_file ~path a;
      match S.of_file path with
      | Ok b -> check_bool "file round-trip" true (C.Afsa.structurally_equal a b)
      | Error e -> Alcotest.fail e)

(* ---------------------------- processes ---------------------------- *)

module X = Chorev_bpel.Sexp

let test_process_roundtrip_scenario () =
  List.iter
    (fun p ->
      match X.process_of_string (X.process_to_string p) with
      | Ok p' ->
          check_bool
            (C.Bpel.Process.name p ^ " round-trips")
            true
            (C.Bpel.Activity.equal (C.Bpel.Process.body p)
               (C.Bpel.Process.body p')
            && String.equal (C.Bpel.Process.party p) (C.Bpel.Process.party p')
            && C.Bpel.Process.links p = C.Bpel.Process.links p')
      | Error e -> Alcotest.fail e)
    [
      P.buyer_process; P.accounting_process; P.logistics_process;
      P.accounting_cancel; P.accounting_once; P.buyer_with_cancel;
      P.buyer_once;
    ]

let test_process_quoting () =
  (* block names with spaces and quotes survive *)
  let p =
    C.Bpel.Process.with_body P.buyer_process
      (C.Bpel.Activity.seq {|we "quote" things|}
         [ C.Bpel.Activity.Assign "x y z" ])
  in
  match X.process_of_string (X.process_to_string p) with
  | Ok p' ->
      check_bool "quoted round-trip" true
        (C.Bpel.Activity.equal (C.Bpel.Process.body p) (C.Bpel.Process.body p'))
  | Error e -> Alcotest.fail e

let test_process_parse_errors () =
  check_bool "garbage" true (Result.is_error (X.process_of_string "(nope)"));
  check_bool "truncated" true
    (Result.is_error (X.process_of_string "(process a b"));
  check_bool "activity garbage" true
    (Result.is_error (X.activity_of_string "(frobnicate x)"))

(* A carriage return ends a bare atom, so an atom holding one must be
   quoted: in a process name, an assignment and a comm. *)
let test_process_carriage_return () =
  let module Act = C.Bpel.Activity in
  List.iter
    (fun (what, p) ->
      check_bool (what ^ " round-trips") true
        (X.process_of_string (X.process_to_string p) = Ok p))
    [
      ("name", C.Bpel.Process.with_name P.buyer_process "buyer\rv1");
      ( "assign",
        C.Bpel.Process.with_body P.buyer_process
          (Act.seq "s" [ Act.Assign "a\rb"; Act.Assign "\r" ]) );
      ( "comm",
        C.Bpel.Process.with_body P.buyer_process
          (Act.seq "s" [ Act.invoke ~partner:"A\r" ~op:"order\rOp" ]) );
    ]

(* Every atom round-trips: generator processes with each atom redrawn
   from all 256 byte values, or empty. *)
let prop_process_roundtrip_any_atom =
  QCheck.Test.make ~name:"any atom round-trips" ~count:200
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let pa, _ = C.Workload.Gen_process.pair ~seed () in
      let p =
        Sexp_ref.map_atoms
          (fun _ -> Sexp_ref.random_atom rng Sexp_ref.all_bytes ())
          pa
      in
      X.process_of_string (X.process_to_string p) = Ok p)

let prop_process_roundtrip =
  QCheck.Test.make ~name:"random process sexp round-trips" ~count:50
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000))
    (fun seed ->
      let pa, _ = C.Workload.Gen_process.pair ~seed () in
      match X.process_of_string (X.process_to_string pa) with
      | Ok p' ->
          C.Bpel.Activity.equal (C.Bpel.Process.body pa)
            (C.Bpel.Process.body p')
      | Error _ -> false)

(* A serialized process regenerates the identical public process. *)
let test_roundtrip_preserves_public () =
  let p = P.accounting_process in
  let p' = Result.get_ok (X.process_of_string (X.process_to_string p)) in
  check_bool "same public" true
    (C.Equiv.equal_annotated (C.Public_gen.public p) (C.Public_gen.public p'))

let test_pp_stability () =
  (* serialization is deterministic *)
  check_str "stable output"
    (X.process_to_string P.buyer_process)
    (X.process_to_string P.buyer_process)

(* ------------------------------ printer ---------------------------- *)

(* Every process of the benchmark-sized serve script
   ([serve --gen-script --tenants 1000 --requests 5000 --seed 42]):
   both printers write the same bytes, and printing what was read gives
   back the bytes the script carries. test_mapping's differential group
   compares the printers on the procurement processes, the generator
   families, suggestion results and random block structures. *)
let test_printer_serve_script () =
  let module W = C.Serve.Wire in
  let sexps =
    List.concat_map
      (fun line ->
        match W.request_of_string line with
        | Ok { W.op = W.Register { processes; _ }; _ } -> processes
        | Ok { W.op = W.Evolve { changed; _ }; _ } -> [ changed ]
        | _ -> [])
      (C.Serve.Driver.gen_script ~tenants:1000 ~requests:5000 ~seed:42 ())
  in
  Alcotest.(check int) "processes in the script" 2996 (List.length sexps);
  List.iteri
    (fun i s ->
      match X.process_of_string s with
      | Error e -> Alcotest.failf "process %d: %s" i e
      | Ok p ->
          if not (Sexp_ref.agrees p) then
            Alcotest.failf "process %d: differs from the tree printer" i;
          if not (String.equal (X.process_to_string p) s) then
            Alcotest.failf "process %d: reprinted bytes differ" i)
    sexps

let () =
  Alcotest.run "serialize"
    [
      ( "formula",
        [
          Alcotest.test_case "parse basics" `Quick test_formula_parse_basics;
          Alcotest.test_case "parse errors" `Quick test_formula_parse_errors;
          QCheck_alcotest.to_alcotest prop_formula_roundtrip;
        ] );
      ( "afsa",
        [
          Alcotest.test_case "scenario round-trips" `Quick
            test_afsa_roundtrip_scenario;
          Alcotest.test_case "eps" `Quick test_afsa_eps_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_afsa_parse_errors;
          Alcotest.test_case "file io" `Quick test_afsa_file;
          QCheck_alcotest.to_alcotest prop_afsa_roundtrip;
        ] );
      ( "process",
        [
          Alcotest.test_case "scenario round-trips" `Quick
            test_process_roundtrip_scenario;
          Alcotest.test_case "quoting" `Quick test_process_quoting;
          Alcotest.test_case "parse errors" `Quick test_process_parse_errors;
          Alcotest.test_case "public preserved" `Quick
            test_roundtrip_preserves_public;
          Alcotest.test_case "stable" `Quick test_pp_stability;
          Alcotest.test_case "carriage return" `Quick
            test_process_carriage_return;
          QCheck_alcotest.to_alcotest prop_process_roundtrip;
          QCheck_alcotest.to_alcotest prop_process_roundtrip_any_atom;
        ] );
      ( "printer",
        [
          Alcotest.test_case "seed-42 serve script" `Quick
            test_printer_serve_script;
        ] );
    ]
