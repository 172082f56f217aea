(* Degenerate-input hardening: the algebra must neither raise nor loop
   on empty / final-less / unreachable-annotation automata (handcrafted
   and random), [Model.validate] must flag malformed choreographies
   before the pipeline sees them, and the JSON, s-expression and
   formula parsers must reject hostile input fast with an explicit
   error. *)

module C = Chorev
module B = C.Guard.Budget
module M = C.Choreography.Model
module W = C.Workload.Gen_afsa
module P = C.Scenario.Procurement

let check_bool = Alcotest.(check bool)

let lab msg = C.Label.make ~sender:"A" ~receiver:"B" msg
let sym msg = C.Sym.label (lab msg)

(* ------------------------- degenerate inputs ------------------------ *)

let empty_lang = C.Afsa.make ~start:0 ~finals:[] ~edges:[] ()
let single_final = C.Afsa.make ~start:0 ~finals:[ 0 ] ~edges:[] ()

(* edges but no final state: every run is doomed *)
let no_final =
  C.Afsa.make ~start:0 ~finals:[]
    ~edges:[ (0, sym "x", 1); (1, sym "y", 0) ]
    ()

(* a final state that is unreachable from the start *)
let unreachable_final =
  C.Afsa.make ~start:0 ~finals:[ 2 ]
    ~edges:[ (0, sym "x", 1); (3, sym "y", 2) ]
    ()

(* an annotated state nothing can reach; the annotation names a label
   the reachable part never fires *)
let unreachable_annotation =
  C.Afsa.make ~start:0 ~finals:[ 1 ]
    ~edges:[ (0, sym "x", 1); (5, sym "y", 6) ]
    ~ann:[ (6, C.Formula.var (C.Label.to_string (lab "y"))) ]
    ()

(* epsilon-only cycle *)
let eps_cycle =
  C.Afsa.make ~start:0 ~finals:[ 1 ]
    ~edges:[ (0, C.Sym.eps, 0); (0, sym "x", 1) ]
    ()

let degenerates =
  [
    ("empty", empty_lang);
    ("single final", single_final);
    ("no final", no_final);
    ("unreachable final", unreachable_final);
    ("unreachable annotation", unreachable_annotation);
    ("eps cycle", eps_cycle);
  ]

(* Every unary/binary op over the degenerate zoo: must terminate within
   a generous fuel bound (no unbounded loop) and must not raise. *)
let test_degenerate_zoo () =
  let fuel = 2_000_000 in
  let guard name f =
    let b = B.create ~fuel () in
    match B.run b f with
    | `Done _ -> ()
    | `Exceeded info ->
        Alcotest.failf "%s: fuel exhausted (%a) — unbounded loop?" name
          B.pp_info info
    | exception e ->
        Alcotest.failf "%s: raised %s" name (Printexc.to_string e)
  in
  List.iter
    (fun (na, a) ->
      guard (na ^ " determinize") (fun () ->
          C.Determinize.determinize ~budget:(B.ambient ()) a);
      guard (na ^ " minimize") (fun () ->
          C.Minimize.minimize ~budget:(B.ambient ()) a);
      guard (na ^ " emptiness") (fun () ->
          C.Emptiness.analyze ~budget:(B.ambient ()) a);
      (* [Complete.complete] documents a no-ε precondition *)
      guard (na ^ " complete") (fun () ->
          C.Complete.complete ~budget:(B.ambient ())
            (C.Epsilon.eliminate ~budget:(B.ambient ()) a));
      List.iter
        (fun (nb, b) ->
          let name = na ^ " × " ^ nb in
          guard (name ^ " intersect") (fun () ->
              C.Ops.intersect ~budget:(B.ambient ()) a b);
          guard (name ^ " difference") (fun () ->
              C.Ops.difference ~budget:(B.ambient ()) a b);
          guard (name ^ " union") (fun () ->
              C.Ops.union ~budget:(B.ambient ()) a b))
        degenerates)
    degenerates

(* Algebraic sanity on the same zoo. *)
let test_degenerate_laws () =
  List.iter
    (fun (name, a) ->
      check_bool (name ^ ": a ∩ ∅ empty") true
        (C.Emptiness.is_empty_plain (C.Ops.intersect a empty_lang));
      check_bool (name ^ ": a − a empty") true
        (C.Emptiness.is_empty_plain (C.Ops.difference a a));
      check_bool (name ^ ": a ∪ ∅ = a") true
        (C.Equiv.equal_language (C.Ops.union a empty_lang) a);
      check_bool (name ^ ": minimize preserves language") true
        (C.Equiv.equal_language (C.Minimize.minimize a) a))
    degenerates;
  check_bool "no-final is empty" true (C.Emptiness.is_empty_plain no_final);
  check_bool "unreachable final is empty" true
    (C.Emptiness.is_empty_plain unreachable_final);
  check_bool "unreachable annotation is harmless" true
    (C.Emptiness.is_nonempty unreachable_annotation)

(* Random sweep: arbitrary (dense, sparse, final-less, annotated)
   automata through every op — no exception, bounded work. *)
let test_random_degenerates () =
  let qcheck_seed = ref 0 in
  let gen_case () =
    incr qcheck_seed;
    let seed = !qcheck_seed in
    let rng = Random.State.make [| seed; 0xdead |] in
    let states = 1 + Random.State.int rng 12 in
    (* edges per state: empty, sparse, moderate, dense *)
    let density = [| 0.0; 0.3; 2.0; 8.0 |].(Random.State.int rng 4) in
    let final_p = [| 0.0; 0.2; 1.0 |].(Random.State.int rng 3) in
    W.random ~seed ~states ~labels:4 ~density ~final_p ()
  in
  for _ = 1 to 60 do
    let a = gen_case () and b = gen_case () in
    let budget = B.create ~fuel:5_000_000 () in
    match
      B.run budget (fun () ->
          let i = C.Ops.intersect ~budget a b in
          let d = C.Ops.difference ~budget a b in
          let u = C.Ops.union ~budget a b in
          let m = C.Minimize.minimize ~budget u in
          ignore (C.Emptiness.analyze ~budget i);
          ignore (C.Emptiness.analyze ~budget d);
          (* union of the parts is language-equal to the union input *)
          C.Equiv.equal_language m u)
    with
    | `Done true -> ()
    | `Done false -> Alcotest.fail "minimize changed the language"
    | `Exceeded info ->
        Alcotest.failf "random case exhausted fuel: %a" B.pp_info info
    | exception e -> Alcotest.failf "random case raised %s" (Printexc.to_string e)
  done

(* --------------------------- Model.validate ------------------------- *)

let test_validate_ok () =
  let t = M.of_processes (List.map snd P.parties) in
  match M.validate t with
  | Ok () -> ()
  | Error issues ->
      Alcotest.failf "procurement flagged:@.%a"
        (Fmt.list ~sep:Fmt.cut M.pp_issue)
        issues

let test_validate_unknown_party () =
  (* the buyer alone references accounting ("A"), which is absent *)
  let t = M.of_processes [ P.buyer_process ] in
  match M.validate t with
  | Ok () -> Alcotest.fail "missing counterparty must be flagged"
  | Error issues ->
      check_bool "unknown party ref" true
        (List.exists
           (fun (i : M.issue) ->
             match i.M.kind with
             | M.Unknown_party_ref { missing; _ } -> missing = "A"
             | _ -> false)
           issues);
      check_bool "it is an error" true
        (List.exists (fun i -> M.issue_severity i = `Error) issues)

let test_validate_dangling_channel () =
  (* buyer_with_cancel sends cancel messages the original accounting
     process never mentions — and since the cancel *type* is absent
     from accounting's whole alphabet, the stronger
     Unknown_message_type warning fires (not just Dangling_channel) *)
  let t =
    M.of_processes [ P.buyer_with_cancel; P.accounting_process; P.logistics_process ]
  in
  match M.validate t with
  | Ok () -> Alcotest.fail "dangling cancel channel must be flagged"
  | Error issues ->
      check_bool "unknown message type found" true
        (List.exists
           (fun (i : M.issue) ->
             match i.M.kind with
             | M.Unknown_message_type { label; _ } ->
                 label.Chorev.Label.msg = "cancelOp"
             | _ -> false)
           issues);
      check_bool "unmatched channels are warnings" true
        (List.for_all
           (fun (i : M.issue) ->
             match i.M.kind with
             | M.Dangling_channel _ | M.Unknown_message_type _ ->
                 M.issue_severity i = `Warning
             | _ -> true)
           issues)

(* -------------------------- hostile json ---------------------------- *)

module Json = C.Wal.Json

let check_string = Alcotest.(check string)

(* [e] ends in " at offset N" *)
let names_offset e =
  let marker = " at offset " in
  let m = String.length marker and n = String.length e in
  let rec find i =
    i + m <= n
    && ((String.sub e i m = marker
        && int_of_string_opt (String.sub e (i + m) (n - i - m)) <> None)
       || find (i + 1))
  in
  find 0

(* [input] is rejected with an error that names an offset *)
let rejected_at_offset what input =
  match Json.of_string input with
  | Ok _ -> Alcotest.fail (what ^ ": accepted")
  | Error e ->
      if not (names_offset e) then Alcotest.fail (what ^ ": no offset in " ^ e)

let test_json_lone_surrogates () =
  rejected_at_offset "lone high surrogate" {|"\ud800"|};
  rejected_at_offset "lone low surrogate" {|"\udc00x"|};
  rejected_at_offset "high surrogate before a non-surrogate"
    {|"\ud800\u0041"|}

let test_json_surrogate_pair () =
  match Json.of_string {|"\ud83d\ude00"|} with
  | Ok (Json.Str s) -> check_string "U+1F600 as UTF-8" "\xF0\x9F\x98\x80" s
  | _ -> Alcotest.fail "surrogate pair not decoded"

let test_json_bad_numbers_and_escapes () =
  rejected_at_offset "bad hex digit" {|"\u12g4"|};
  rejected_at_offset "bare minus" "-";
  rejected_at_offset "minus in an array" "[1,-]";
  rejected_at_offset "integer overflow" "99999999999999999999"

let test_json_nesting_bound () =
  let n = 10_000_000 in
  let t0 = Unix.gettimeofday () in
  let r = Json.of_string (String.make n '[') in
  let took = Unix.gettimeofday () -. t0 in
  (match r with
  | Ok _ -> Alcotest.fail "unbounded nesting accepted"
  | Error e ->
      check_string "names the limit" "nesting deeper than 512 at offset 512" e);
  check_bool (Printf.sprintf "rejected in %.3fs" took) true (took < 1.0);
  (* nesting the program writes is far below the bound *)
  let rec deep k = if k = 0 then Json.Int 1 else Json.Arr [ deep (k - 1) ] in
  check_bool "64 levels round-trip" true
    (Json.of_string (Json.to_string (deep 64)) = Ok (deep 64))

let test_json_utf8_roundtrip () =
  let v = Json.Obj [ ("k\xC3\xA9", Json.Str "caf\xC3\xA9 \xE2\x82\xAC \xF0\x9F\x98\x80") ] in
  check_bool "of_string (to_string v) = Ok v" true
    (Json.of_string (Json.to_string v) = Ok v)

(* ------------------------- hostile nesting -------------------------- *)

(* 10M nested parentheses: each parser stops at its nesting bound with
   an error naming it, in far less than a second. *)
let nested = lazy (String.make 10_000_000 '(')

let rejected_quickly what expected parse =
  let input = Lazy.force nested in
  let t0 = Unix.gettimeofday () in
  let r = parse input in
  let took = Unix.gettimeofday () -. t0 in
  (match r with
  | Ok () -> Alcotest.fail (what ^ ": unbounded nesting accepted")
  | Error e -> check_string (what ^ ": names the limit") expected e);
  check_bool (Printf.sprintf "%s: rejected in %.3fs" what took) true
    (took < 1.0)

let test_sexp_nesting_bound () =
  rejected_quickly "sexp" "nesting deeper than 10000" (fun s ->
      Result.map ignore (C.Bpel.Sexp.process_of_string s));
  (* the bound itself parses *)
  let lists k = String.make k '(' ^ String.make k ')' in
  check_bool "10000 nested lists parse" true
    (match C.Bpel.Sexp.parse_sexp (lists 10_000) with
    | C.Bpel.Sexp.List _ -> true
    | Atom _ -> false);
  check_bool "10001 do not" true
    (match C.Bpel.Sexp.parse_sexp (lists 10_001) with
    | _ -> false
    | exception C.Bpel.Sexp.Parse_error _ -> true)

let test_formula_nesting_bound () =
  rejected_quickly "formula" "nesting deeper than 512" (fun s ->
      Result.map ignore (C.Formula.Parse.of_string s));
  (* nesting annotations use is far below the bound; an [OR] under an
     [AND] prints in parentheses *)
  let m = C.Formula.Var "m" in
  let rec deep k =
    if k = 0 then C.Formula.Not m
    else C.Formula.And (m, C.Formula.Or (m, deep (k - 1)))
  in
  let f = deep 64 in
  check_bool "64 levels round-trip" true
    (C.Formula.Parse.of_string (C.Formula.Pp.to_string f) = Ok f)

(* The JSON depth bound never sees this nesting: [changed] is a JSON
   string, parsed as a process only by the server. *)
let test_evolve_nesting_bound () =
  let server = C.Serve.Server.create () in
  let register =
    C.Serve.Wire.Register
      {
        tenant = "t";
        processes =
          List.map (fun (_, p) -> C.Bpel.Sexp.process_to_string p) P.parties;
      }
  in
  let registered = C.Serve.Server.handle server { id = 0; op = register } in
  check_bool "tenant registered" true (Result.is_ok registered.result);
  rejected_quickly "evolve request" "process: nesting deeper than 10000"
    (fun changed ->
      let op =
        C.Serve.Wire.Evolve
          { tenant = "t"; owner = "A"; changed; klass = C.Serve.Wire.Bulk }
      in
      let resp = C.Serve.Server.handle server { id = 1; op } in
      match resp.result with
      | Error (`Bad_request e) -> Error e
      | Ok _ -> Ok ()
      | Error _ -> Error (C.Serve.Wire.response_to_string resp))

(* --------------------------- hostile lines --------------------------- *)

(* [lines] through [Server.run_pipe] on a fresh server, via temp files:
   the decoded responses and the time the server took. *)
let pipe lines =
  let inp = Filename.temp_file "chorev-pipe" ".in"
  and out = Filename.temp_file "chorev-pipe" ".out" in
  Out_channel.with_open_bin inp (fun oc ->
      List.iter (fun l -> output_string oc l; output_char oc '\n') lines);
  let server = C.Serve.Server.create () in
  let t0 = Unix.gettimeofday () in
  In_channel.with_open_bin inp (fun ic ->
      Out_channel.with_open_bin out (fun oc ->
          ignore (C.Serve.Server.run_pipe server ic oc)));
  let took = Unix.gettimeofday () -. t0 in
  let resps = In_channel.with_open_bin out In_channel.input_lines in
  Sys.remove inp;
  Sys.remove out;
  ( List.map
      (fun l -> Result.get_ok (C.Serve.Wire.response_of_string l))
      resps,
    took )

let bad_request (r : C.Serve.Wire.response) =
  match r.result with Error (`Bad_request d) -> Some (r.id, d) | _ -> None

let line_cap = 16 * 1024 * 1024

let req id op = C.Serve.Wire.request_to_string { id; op }

let register =
  C.Serve.Wire.Register
    {
      tenant = "t";
      processes =
        List.map (fun (_, p) -> C.Bpel.Sexp.process_to_string p) P.parties;
    }

(* A 20 MB line is answered with the length error and skipped; the
   query after it is still served, and the oracle answers the same. *)
let test_overlong_line () =
  let lines =
    [
      req 1 register;
      String.make 20_000_000 'x';
      req 2 (C.Serve.Wire.Query { tenant = "t" });
    ]
  in
  let resps, took = pipe lines in
  check_bool "the oracle's stream" true
    (List.map C.Serve.Wire.response_to_string resps
    = C.Serve.Driver.oracle lines);
  match resps with
  | [ registered; long; query ] ->
      check_bool "tenant registered" true (Result.is_ok registered.result);
      check_bool "length error, id 0" true
        (bad_request long = Some (0, "line longer than 16777216 bytes"));
      check_bool "query answered" true
        (query.id = 2 && Result.is_ok query.result);
      check_bool (Printf.sprintf "served in %.3fs" took) true (took < 1.0)
  | _ -> Alcotest.failf "%d responses, expected 3" (List.length resps)

(* A line of exactly the cap still reaches the decoder. *)
let test_line_at_cap () =
  let line = String.make line_cap 'x' in
  let expected =
    match C.Serve.Wire.request_of_string line with
    | Error e -> e
    | Ok _ -> Alcotest.fail "decoded"
  in
  match pipe [ line ] with
  | [ r ], _ ->
      check_bool "the decoder's error" true (bad_request r = Some expected)
  | resps, _ -> Alcotest.failf "%d responses, expected 1" (List.length resps)

(* Blank and whitespace-only lines get no response: the pipe, the
   oracle and replay all skip them. A whitespace line over the cap is
   not blank: all three answer it with the length error. *)
let test_blank_lines () =
  let same_streams what lines ~responses ~requests ~errors =
    let resps, _ = pipe lines in
    check_bool (what ^ ": the oracle's stream") true
      (List.map C.Serve.Wire.response_to_string resps
      = C.Serve.Driver.oracle lines);
    Alcotest.(check int) (what ^ ": responses") responses (List.length resps);
    let r = C.Serve.Driver.replay lines in
    Alcotest.(check int) (what ^ ": replay requests") requests r.requests;
    Alcotest.(check int) (what ^ ": replay errors") errors r.errors;
    resps
  in
  ignore
    (same_streams "short blanks"
       [
         "";
         req 1 register;
         "   ";
         "\t";
         req 2 (C.Serve.Wire.Query { tenant = "t" });
         " \t ";
         "";
       ]
       ~responses:2 ~requests:2 ~errors:0);
  match
    same_streams "blank over the cap"
      [
        req 1 register;
        String.make (line_cap + 1024 * 1024) ' ';
        req 2 (C.Serve.Wire.Query { tenant = "t" });
      ]
      ~responses:3 ~requests:2 ~errors:1
  with
  | [ _; long; _ ] ->
      check_bool "length error, id 0" true
        (bad_request long = Some (0, "line longer than 16777216 bytes"))
  | resps -> Alcotest.failf "%d responses, expected 3" (List.length resps)

let () =
  Alcotest.run "robustness"
    [
      ( "degenerate",
        [
          Alcotest.test_case "handcrafted zoo" `Quick test_degenerate_zoo;
          Alcotest.test_case "algebraic laws" `Quick test_degenerate_laws;
          Alcotest.test_case "random sweep" `Slow test_random_degenerates;
        ] );
      ( "validate",
        [
          Alcotest.test_case "procurement is clean" `Quick test_validate_ok;
          Alcotest.test_case "unknown party" `Quick test_validate_unknown_party;
          Alcotest.test_case "dangling channel" `Quick
            test_validate_dangling_channel;
        ] );
      ( "hostile json",
        [
          Alcotest.test_case "lone surrogates" `Quick test_json_lone_surrogates;
          Alcotest.test_case "surrogate pair" `Quick test_json_surrogate_pair;
          Alcotest.test_case "bad numbers and escapes" `Quick
            test_json_bad_numbers_and_escapes;
          Alcotest.test_case "nesting bound" `Quick test_json_nesting_bound;
          Alcotest.test_case "utf-8 round trip" `Quick test_json_utf8_roundtrip;
        ] );
      ( "hostile nesting",
        [
          Alcotest.test_case "sexp" `Quick test_sexp_nesting_bound;
          Alcotest.test_case "formula" `Quick test_formula_nesting_bound;
          Alcotest.test_case "evolve request" `Quick test_evolve_nesting_bound;
        ] );
      ( "hostile lines",
        [
          Alcotest.test_case "over-long line skipped" `Quick test_overlong_line;
          Alcotest.test_case "line at the cap decoded" `Quick test_line_at_cap;
          Alcotest.test_case "blank lines skipped" `Quick test_blank_lines;
        ] );
    ]
