(* Public-process generation (Sec. 3.3): compilation rules, annotation
   rules, and the mapping table (Table 1). *)

module C = Chorev
module A = C.Afsa
module B = C.Bpel
module Act = B.Activity
module F = C.Formula
module P = C.Scenario.Procurement

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let l = C.Label.of_string_exn
let word = List.map l

let registry =
  B.Types.registry
    [
      ( "P",
        {
          B.Types.pt_name = "pPort";
          ops =
            [
              B.Types.async "aOp";
              B.Types.async "bOp";
              B.Types.async "cOp";
              B.Types.sync "sOp";
            ];
        } );
      ( "me",
        {
          B.Types.pt_name = "mePort";
          ops = [ B.Types.async "inOp"; B.Types.async "in2Op" ];
        } );
    ]

let proc body = B.Process.make ~name:"t" ~party:"me" ~registry body
let gen body = C.Public_gen.public (proc body)

(* --------------------------- basic blocks ------------------------- *)

let test_receive () =
  let a = gen (Act.seq "r" [ Act.receive ~partner:"P" ~op:"inOp" ]) in
  check_int "two states" 2 (A.num_states a);
  check_bool "accepts" true (C.Trace.accepts a (word [ "P#me#inOp" ]))

let test_invoke_async () =
  let a = gen (Act.seq "r" [ Act.invoke ~partner:"P" ~op:"aOp" ]) in
  check_bool "accepts" true (C.Trace.accepts a (word [ "me#P#aOp" ]))

let test_invoke_sync_two_messages () =
  let a = gen (Act.seq "r" [ Act.invoke ~partner:"P" ~op:"sOp" ]) in
  check_int "three states" 3 (A.num_states a);
  check_bool "request then response" true
    (C.Trace.accepts a (word [ "me#P#sOp"; "P#me#sOp" ]))

let test_silent_activities () =
  let a =
    gen
      (Act.seq "r"
         [ Act.Assign "x"; Act.Empty; Act.invoke ~partner:"P" ~op:"aOp" ])
  in
  check_int "silent collapse" 2 (A.num_states a);
  check_bool "accepts" true (C.Trace.accepts a (word [ "me#P#aOp" ]))

let test_terminate_is_final () =
  let a =
    gen
      (Act.seq "r"
         [ Act.invoke ~partner:"P" ~op:"aOp"; Act.Terminate;
           Act.invoke ~partner:"P" ~op:"bOp" ])
  in
  (* bOp is unreachable: terminate ends the process *)
  check_bool "a accepted" true (C.Trace.accepts a (word [ "me#P#aOp" ]));
  check_bool "ab rejected" false
    (C.Trace.accepts a (word [ "me#P#aOp"; "me#P#bOp" ]));
  check_int "unreachable tail dropped" 2 (A.num_states a);
  (* no ε at all: the unreachable exit state must still go *)
  let a, tbl = C.Public_gen.generate (proc (Act.seq "r" [ Act.Terminate ])) in
  check_int "lone terminate: one state" 1 (A.num_states a);
  check_bool "lone terminate: final start" true (A.is_final a (A.start a));
  Alcotest.(check (list int)) "lone terminate: table" [ 0 ] (C.Table.states tbl)

let test_switch_branches () =
  let a =
    gen
      (Act.seq "r"
         [
           Act.switch "sw"
             [
               Act.branch ~cond:"1" (Act.invoke ~partner:"P" ~op:"aOp");
               Act.branch ~cond:"2" (Act.invoke ~partner:"P" ~op:"bOp");
             ];
         ])
  in
  check_bool "a" true (C.Trace.accepts a (word [ "me#P#aOp" ]));
  check_bool "b" true (C.Trace.accepts a (word [ "me#P#bOp" ]));
  check_bool "ab" false (C.Trace.accepts a (word [ "me#P#aOp"; "me#P#bOp" ]))

let test_switch_annotation () =
  let a =
    gen
      (Act.seq "r"
         [
           Act.switch "sw"
             [
               Act.branch ~cond:"1" (Act.invoke ~partner:"P" ~op:"aOp");
               Act.branch ~cond:"2" (Act.invoke ~partner:"P" ~op:"bOp");
             ];
         ])
  in
  check_bool "conjunctive mandatory annotation" true
    (F.Sat.equivalent
       (A.annotation a (A.start a))
       (F.and_ (F.var "me#P#aOp") (F.var "me#P#bOp")))

let test_single_branch_no_annotation () =
  let a =
    gen
      (Act.seq "r"
         [
           Act.switch "sw"
             [ Act.branch ~cond:"1" (Act.invoke ~partner:"P" ~op:"aOp") ];
         ])
  in
  check_bool "no annotation" false (A.has_annotations a)

let test_pick_no_annotation () =
  let a =
    gen
      (Act.seq "r"
         [
           Act.pick "pk"
             [
               Act.on_message ~partner:"P" ~op:"inOp" Act.Empty;
               Act.on_message ~partner:"P" ~op:"in2Op" Act.Empty;
             ];
         ])
  in
  check_bool "external choice optional" false (A.has_annotations a);
  check_bool "in" true (C.Trace.accepts a (word [ "P#me#inOp" ]));
  check_bool "in2" true (C.Trace.accepts a (word [ "P#me#in2Op" ]))

let test_receive_first_annotation_excluded () =
  (* branches starting with receives contribute nothing mandatory *)
  let a =
    gen
      (Act.seq "r"
         [
           Act.switch "sw"
             [
               Act.branch ~cond:"1" (Act.invoke ~partner:"P" ~op:"aOp");
               Act.branch ~cond:"2" (Act.receive ~partner:"P" ~op:"inOp");
             ];
         ])
  in
  check_bool "only send is mandatory" true
    (F.Sat.equivalent (A.annotation a (A.start a)) (F.var "me#P#aOp"))

let test_while_infinite_no_exit () =
  let a =
    gen
      (Act.seq "r"
         [
           Act.while_ "loop" ~cond:"1 = 1"
             (Act.pick "pk"
                [
                  Act.on_message ~partner:"P" ~op:"inOp" Act.Empty;
                  Act.on_message ~partner:"P" ~op:"in2Op" Act.Terminate;
                ]);
         ])
  in
  check_bool "cannot exit without terminate" false
    (C.Trace.accepts a (word [ "P#me#inOp" ]));
  check_bool "terminates via in2" true (C.Trace.accepts a (word [ "P#me#in2Op" ]));
  check_bool "loops" true
    (C.Trace.accepts a (word [ "P#me#inOp"; "P#me#inOp"; "P#me#in2Op" ]))

let test_while_finite_has_exit () =
  let a =
    gen
      (Act.seq "r"
         [
           Act.while_ "loop" ~cond:"again?"
             (Act.invoke ~partner:"P" ~op:"aOp");
           Act.invoke ~partner:"P" ~op:"bOp";
         ])
  in
  check_bool "zero iterations" true (C.Trace.accepts a (word [ "me#P#bOp" ]));
  check_bool "two iterations" true
    (C.Trace.accepts a (word [ "me#P#aOp"; "me#P#aOp"; "me#P#bOp" ]))

let test_flow_interleaves () =
  let a =
    gen
      (Act.seq "r"
         [
           Act.flow "f"
             [
               Act.invoke ~partner:"P" ~op:"aOp";
               Act.invoke ~partner:"P" ~op:"bOp";
             ];
           Act.invoke ~partner:"P" ~op:"cOp";
         ])
  in
  check_bool "ab order" true
    (C.Trace.accepts a (word [ "me#P#aOp"; "me#P#bOp"; "me#P#cOp" ]));
  check_bool "ba order" true
    (C.Trace.accepts a (word [ "me#P#bOp"; "me#P#aOp"; "me#P#cOp" ]));
  check_bool "c needs both" false
    (C.Trace.accepts a (word [ "me#P#aOp"; "me#P#cOp" ]))

let test_scope_transparent () =
  let a =
    gen (Act.seq "r" [ Act.scope "s" (Act.invoke ~partner:"P" ~op:"aOp") ])
  in
  check_bool "scope body" true (C.Trace.accepts a (word [ "me#P#aOp" ]))

let test_nonterminating_cond_variants () =
  check_bool "1=1 spaced" true (C.Public_gen.nonterminating_cond "1 = 1");
  check_bool "true upper" true (C.Public_gen.nonterminating_cond "TRUE");
  check_bool "squashed" true (C.Public_gen.nonterminating_cond "1=1");
  check_bool "other" false (C.Public_gen.nonterminating_cond "x > 0")

(* ----------------------- the paper's processes --------------------- *)

let test_fig6_buyer_public () =
  let a, _ = C.Public_gen.generate P.buyer_process in
  check_int "5 states" 5 (A.num_states a);
  check_int "5 edges" 5 (A.num_edges a);
  check_int "one final" 1 (List.length (A.finals a));
  (* loop head annotation: both tracking messages mandatory *)
  check_bool "fig6 annotation" true
    (F.Sat.equivalent (A.annotation a 2)
       (F.and_ (F.var "B#A#get_statusOp") (F.var "B#A#terminateOp")))

let test_table1 () =
  let _, tbl = C.Public_gen.generate P.buyer_process in
  let blocks q =
    List.map (fun (e : C.Table.entry) -> e.block) (C.Table.entries tbl q)
  in
  Alcotest.(check (list string))
    "state 0" [ "BPELProcess"; "Sequence:buyer process" ] (blocks 0);
  Alcotest.(check (list string)) "state 1" [ "Sequence:buyer process" ] (blocks 1);
  Alcotest.(check (list string))
    "state 2"
    [
      "Sequence:buyer process";
      "While:tracking";
      "Switch:termination?";
      "Sequence:cond continue";
      "Sequence:cond terminate";
    ]
    (blocks 2);
  Alcotest.(check (list string)) "state 3" [ "Sequence:cond continue" ] (blocks 3);
  Alcotest.(check (list string)) "state 4" [ "Sequence:cond terminate" ] (blocks 4);
  (* anchor = first block *)
  match C.Table.anchor tbl 2 with
  | Some e -> Alcotest.(check string) "anchor" "Sequence:buyer process" e.block
  | None -> Alcotest.fail "anchor expected"

let test_fig7_accounting_public () =
  let a = C.Public_gen.public P.accounting_process in
  check_int "10 states" 10 (A.num_states a);
  check_bool "full happy path" true
    (C.Trace.accepts a
       (word
          [
            "B#A#orderOp";
            "A#L#deliverOp";
            "L#A#deliver_confOp";
            "A#B#deliveryOp";
            "B#A#terminateOp";
            "A#L#terminateLOp";
          ]));
  check_bool "no accounting annotations (pick is external)" false
    (A.has_annotations a)

let test_table_anchor_paths_valid () =
  let p = P.buyer_process in
  let _, tbl = C.Public_gen.generate p in
  List.iter
    (fun q ->
      List.iter
        (fun (e : C.Table.entry) ->
          check_bool
            (Printf.sprintf "path of %s resolves" e.block)
            true
            (Act.find_at e.path (B.Process.body p) <> None))
        (C.Table.entries tbl q))
    (C.Table.states tbl)

let test_generation_is_deterministic_automaton () =
  List.iter
    (fun (_, p) ->
      check_bool
        (B.Process.name p ^ " deterministic")
        true
        (A.is_deterministic (C.Public_gen.public p)))
    P.parties

let test_reply () =
  let a =
    gen
      (Act.seq "r"
         [ Act.receive ~partner:"P" ~op:"inOp"; Act.reply ~partner:"P" ~op:"in2Op" ])
  in
  check_bool "receive then reply" true
    (C.Trace.accepts a (word [ "P#me#inOp"; "me#P#in2Op" ]))

let test_sync_receive () =
  (* a receive of a synchronous operation of MY port produces request
     then response *)
  let reg =
    B.Types.registry
      [
        ("me", { B.Types.pt_name = "p"; ops = [ B.Types.sync "rpcOp" ] });
        ("P", { B.Types.pt_name = "q"; ops = [] });
      ]
  in
  let p =
    B.Process.make ~name:"t" ~party:"me" ~registry:reg
      (Act.seq "r" [ Act.receive ~partner:"P" ~op:"rpcOp" ])
  in
  let a = C.Public_gen.public p in
  check_bool "request then response" true
    (C.Trace.accepts a (word [ "P#me#rpcOp"; "me#P#rpcOp" ]))

let test_pick_sync_trigger () =
  let reg =
    B.Types.registry
      [
        ("me", { B.Types.pt_name = "p"; ops = [ B.Types.sync "rpcOp" ] });
        ("P", { B.Types.pt_name = "q"; ops = [ B.Types.async "aOp" ] });
      ]
  in
  let p =
    B.Process.make ~name:"t" ~party:"me" ~registry:reg
      (Act.seq "r"
         [
           Act.pick "pk"
             [
               Act.on_message ~partner:"P" ~op:"rpcOp"
                 (Act.invoke ~partner:"P" ~op:"aOp");
             ];
         ])
  in
  let a = C.Public_gen.public p in
  check_bool "sync trigger then body" true
    (C.Trace.accepts a (word [ "P#me#rpcOp"; "me#P#rpcOp"; "me#P#aOp" ]))

let test_nested_scopes_and_empty_branches () =
  let a =
    gen
      (Act.seq "r"
         [
           Act.scope "outer"
             (Act.scope "inner"
                (Act.switch "sw"
                   [
                     Act.branch ~cond:"go" (Act.invoke ~partner:"P" ~op:"aOp");
                     Act.otherwise Act.Empty;
                   ]));
           Act.invoke ~partner:"P" ~op:"bOp";
         ])
  in
  check_bool "taken branch" true
    (C.Trace.accepts a (word [ "me#P#aOp"; "me#P#bOp" ]));
  check_bool "empty branch skips" true (C.Trace.accepts a (word [ "me#P#bOp" ]))

let test_table_merges_on_silent () =
  (* a while whose body starts with an assign: the assign's ε collapses
     and the block entries merge onto one state *)
  let p =
    proc
      (Act.seq "r"
         [
           Act.receive ~partner:"P" ~op:"inOp";
           Act.while_ "w" ~cond:"1 = 1"
             (Act.seq "body"
                [ Act.Assign "log"; Act.receive ~partner:"P" ~op:"in2Op" ]);
         ])
  in
  let _, tbl = C.Public_gen.generate p in
  let blocks q =
    List.map (fun (e : C.Table.entry) -> e.block) (C.Table.entries tbl q)
  in
  check_bool "loop head carries while and body blocks" true
    (List.mem "While:w" (blocks 1) && List.mem "Sequence:body" (blocks 1))

(* --------------------------- generator corpus ---------------------- *)

(* One MD5 per family over every generated public's fingerprint and
   printed mapping table, in process order. The literals pin the
   output of the generator that had its own ε-elimination and BFS
   renumbering: a change to any automaton or table fails here. *)
let family_digest processes =
  let buf = Buffer.create 4096 in
  List.iter
    (fun p ->
      let a, tbl = C.Public_gen.generate p in
      Buffer.add_string buf (C.Fingerprint.hex a);
      Buffer.add_string buf (C.Table.to_string tbl);
      Buffer.add_char buf '\n')
    processes;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pairs_family ?params n =
  List.concat
    (List.init n (fun seed ->
         let a, b = C.Workload.Gen_process.pair ?params ~seed () in
         [ a; b ]))

let test_generation_corpus () =
  let procurement =
    List.map snd P.parties
    @ [
        P.accounting_order2; P.accounting_cancel; P.accounting_once;
        P.buyer_with_cancel; P.buyer_once;
      ]
  in
  let deeper =
    { C.Workload.Gen_process.default with depth = 5; width = 3 }
  in
  List.iter
    (fun (name, processes, expected) ->
      Alcotest.(check string) name expected (family_digest processes))
    [
      ("procurement", procurement, "a7a8eda266b805bc4a7870c83a7560af");
      ( "pairs, default params, seeds 0-1999",
        pairs_family 2000,
        "a9dcfeb0f1fa5a0d063c710304ecd96c" );
      ( "pairs, depth 5 width 3, seeds 0-299",
        pairs_family ~params:deeper 300,
        "e5c077e3894ec4258d19889aeec6c808" );
    ]

(* --------------------------- differential vs the ref --------------- *)

(* Each input is also printed by both process printers, which must
   write the same bytes (test/sexp_ref.ml keeps the tree printer). *)
let agrees name p =
  if not (Public_gen_ref.agrees p) then
    Alcotest.failf "%s: automaton or table differs from the ref" name;
  if not (Sexp_ref.agrees p) then
    Alcotest.failf "%s: printed process differs from the tree printer" name

let test_differential_corpus () =
  let deeper =
    { C.Workload.Gen_process.default with depth = 5; width = 3 }
  in
  List.iteri (fun i p -> agrees (Printf.sprintf "procurement %d" i) p)
    (List.map snd P.parties
    @ [
        P.accounting_order2; P.accounting_cancel; P.accounting_once;
        P.buyer_with_cancel; P.buyer_once;
      ]);
  List.iteri (fun i p -> agrees (Printf.sprintf "pairs %d" i) p)
    (pairs_family 2000);
  List.iteri (fun i p -> agrees (Printf.sprintf "deeper pairs %d" i) p)
    (pairs_family ~params:deeper 300)

(* Generation collects the alphabet while it compiles. It must still
   be the whole process alphabet where the compiled automaton loses
   labels or never had them: after a [terminate], inside flow branches
   (one of them terminating before its communication), on a
   synchronous pick trigger, in empty blocks and under a loop with no
   exit. *)
let test_differential_alphabet () =
  let sync_reg =
    B.Types.registry
      [
        ("me", { B.Types.pt_name = "p"; ops = [ B.Types.sync "rpcOp" ] });
        ("P", { B.Types.pt_name = "q"; ops = [ B.Types.async "aOp" ] });
      ]
  in
  List.iter
    (fun (name, p) ->
      Alcotest.(check (list string))
        (name ^ ": alphabet")
        (List.map C.Label.to_string (B.Process.alphabet p))
        (List.map C.Label.to_string (A.alphabet (C.Public_gen.public p)));
      agrees name p)
    [
      ( "communication after terminate",
        proc
          (Act.seq "s"
             [
               Act.receive ~partner:"P" ~op:"inOp";
               Act.Terminate;
               Act.invoke ~partner:"P" ~op:"aOp";
             ]) );
      ( "communications only in flow branches",
        proc
          (Act.seq "s"
             [
               Act.Assign "x";
               Act.flow "f"
                 [
                   Act.invoke ~partner:"P" ~op:"sOp";
                   Act.seq "t"
                     [ Act.Terminate; Act.invoke ~partner:"P" ~op:"bOp" ];
                   Act.receive ~partner:"P" ~op:"in2Op";
                 ];
             ]) );
      ( "synchronous pick trigger",
        B.Process.make ~name:"t" ~party:"me" ~registry:sync_reg
          (Act.pick "pk"
             [
               Act.on_message ~partner:"P" ~op:"rpcOp"
                 (Act.invoke ~partner:"P" ~op:"aOp");
             ]) );
      ( "empty switch, pick and sequence",
        proc
          (Act.seq "s"
             [
               Act.switch "sw" [];
               Act.pick "pk" [];
               Act.seq "e" [];
               Act.invoke ~partner:"P" ~op:"cOp";
             ]) );
      ( "non-terminating while",
        proc
          (Act.seq "s"
             [
               Act.while_ "w" ~cond:"1 = 1" (Act.invoke ~partner:"P" ~op:"aOp");
               Act.receive ~partner:"P" ~op:"inOp";
             ]) );
    ]

(* Random block structures over [registry] with what the generator
   families lack: silent activities, [terminate], flows, empty blocks
   and both loop conditions. Among them are states whose ε-closure
   holds a lower state whose own closure reaches past another member,
   the case where the order the table entries fuse in shows. *)
let random_process seed =
  let rng = Random.State.make [| seed |] in
  let k = ref 0 in
  let name () = incr k; Printf.sprintf "b%d" !k in
  let some f = List.init (Random.State.int rng 4) (fun _ -> f ()) in
  let rec act d =
    match Random.State.int rng (if d <= 0 then 8 else 15) with
    | 0 -> Act.receive ~partner:"P" ~op:"inOp"
    | 1 -> Act.receive ~partner:"P" ~op:"in2Op"
    | 2 -> Act.invoke ~partner:"P" ~op:"aOp"
    | 3 -> Act.invoke ~partner:"P" ~op:"bOp"
    | 4 -> Act.invoke ~partner:"P" ~op:"sOp"
    | 5 -> Act.Assign "x"
    | 6 -> Act.Empty
    | 7 -> if Random.State.int rng 4 = 0 then Act.Terminate else Act.Empty
    | 8 | 9 -> Act.seq (name ()) (some (fun () -> act (d - 1)))
    | 10 ->
        Act.switch (name ())
          (some (fun () -> Act.branch ~cond:"c" (act (d - 1))))
    | 11 ->
        let cond = if Random.State.bool rng then "1 = 1" else "c" in
        Act.while_ (name ()) ~cond (act (d - 1))
    | 12 -> Act.flow (name ()) (some (fun () -> act (d - 2)))
    | 13 -> Act.scope (name ()) (act (d - 1))
    | _ ->
        Act.pick (name ())
          (List.init
             (1 + Random.State.int rng 2)
             (fun i ->
               let op = if i = 0 then "inOp" else "in2Op" in
               Act.on_message ~partner:"P" ~op (act (d - 1))))
  in
  proc (Act.seq "root" (List.init (1 + Random.State.int rng 3) (fun _ -> act 4)))

let test_differential_random () =
  for seed = 0 to 9_999 do
    agrees (Printf.sprintf "random %d" seed) (random_process seed)
  done

(* The same block structures with every atom redrawn from all bytes but
   the carriage return, which only the tree printer leaves bare. The
   redrawn names need not be in the registry, so only the printers are
   compared. *)
let test_differential_random_atoms () =
  for seed = 0 to 9_999 do
    let rng = Random.State.make [| seed; 1 |] in
    let p =
      Sexp_ref.map_atoms
        (fun _ -> Sexp_ref.random_atom rng Sexp_ref.all_but_cr ())
        (random_process seed)
    in
    if not (Sexp_ref.agrees p) then
      Alcotest.failf "random %d: printed process differs from the tree printer"
        seed
  done

(* Every [Suggest.apply] result of the retry sets [Engine.analyze]'s
   suggestions make (all applicable ones together, and each alone) for
   the partner of a [Gen_change] edit, named, with the view
   [τ_partner(A')] the engine re-checks it against. *)
let iter_retry_candidates f =
  let module E = C.Propagate.Engine in
  let module S = C.Propagate.Suggest in
  for seed = 0 to 499 do
    let a, b = C.Workload.Gen_process.pair ~seed () in
    let public_b, table_b = C.Public_gen.generate b in
    List.iter
      (fun (kind, change, direction) ->
        match Option.map (fun op -> C.Change.Ops.apply op a) (change a) with
        | None | Some (Error _) -> ()
        | Some (Ok a') ->
            let an =
              E.analyze ~direction ~a':(C.Public_gen.public a')
                ~partner_private:b ~public_b ~table_b ()
            in
            let applicable =
              List.filter (fun s -> not (S.is_manual s)) an.E.suggestions
            in
            let sets =
              (if List.length applicable > 1 then [ applicable ] else [])
              @ List.map (fun s -> [ s ]) applicable
            in
            List.iteri
              (fun i set ->
                match
                  List.fold_left
                    (fun acc s -> Result.bind acc (S.apply s))
                    (Ok b) set
                with
                | Ok p ->
                    f (Printf.sprintf "seed %d %s set %d" seed kind i) p
                      an.E.view_new
                | Error _ -> ())
              sets)
      [
        ( "additive",
          (fun p -> C.Workload.Gen_change.additive ~seed p),
          E.Additive );
        ( "subtractive",
          (fun p -> C.Workload.Gen_change.subtractive ~seed p),
          E.Subtractive );
      ]
  done

let test_differential_suggestions () =
  iter_retry_candidates (fun name p _ -> agrees name p)

(* [Public_gen.meets] is the plain non-emptiness of the product it
   stands for; where it is false, the annotated re-check it guards
   rejects the candidate too. Returns its verdict. *)
let meets_agrees name p v =
  let public = C.Public_gen.public p in
  let plain = not (C.Emptiness.is_empty_plain (C.Ops.intersect public v)) in
  let got = C.Public_gen.meets p v in
  if got <> plain then
    Alcotest.failf "%s: meets %b, plain product non-empty %b" name got plain;
  if (not got) && C.Consistency.consistent public v then
    Alcotest.failf "%s: rejected by meets but consistent" name;
  got

(* Every retry candidate against its own view. The counts pin how many
   of them the plain test rejects before generation. *)
let test_meets_suggestions () =
  let total = ref 0 and rejected = ref 0 in
  iter_retry_candidates (fun name p v ->
      incr total;
      if not (meets_agrees name p v) then incr rejected);
  check_int "candidates" 1343 !total;
  check_int "rejected" 288 !rejected

(* Random block structures, each also compiled with a synchronous
   [inOp] (its pick triggers chain two labels), against views of a
   random partner public: the process's own public with edges dropped,
   random edges added over its labels and two foreign ones, and random
   finals. [View.relabel] turns the foreign edges into ε-edges; the
   last view lacks one of the process's labels altogether. *)
let test_meets_random () =
  let sync_registry =
    B.Types.registry
      [
        ( "P",
          {
            B.Types.pt_name = "pPort";
            ops =
              [
                B.Types.async "aOp"; B.Types.async "bOp"; B.Types.async "cOp";
                B.Types.sync "sOp";
              ];
          } );
        ( "me",
          {
            B.Types.pt_name = "mePort";
            ops = [ B.Types.sync "inOp"; B.Types.async "in2Op" ];
          } );
      ]
  in
  let foreign = word [ "P#Q#xOp"; "Q#P#yOp" ] in
  let met = ref 0 and missed = ref 0 in
  for seed = 0 to 1_999 do
    let rng = Random.State.make [| seed; 2 |] in
    let async = random_process seed in
    let sync =
      B.Process.make ~name:"t" ~party:"me" ~registry:sync_registry
        (B.Process.body async)
    in
    List.iter
      (fun (variant, p) ->
        let public = C.Public_gen.public p in
        let n = A.num_states public in
        let labels = A.alphabet public in
        let pool = Array.of_list (labels @ foreign) in
        let partner ~without =
          let keep (_, sym, _) =
            Random.State.int rng 10 < 7
            && match (sym, without) with
               | C.Sym.L x, Some y -> not (C.Label.equal x y)
               | _ -> true
          in
          let extra =
            List.init (Random.State.int rng 5) (fun _ ->
                let lab = pool.(Random.State.int rng (Array.length pool)) in
                ( Random.State.int rng n,
                  C.Sym.L lab,
                  Random.State.int rng n ))
            |> List.filter keep
          in
          A.make ~start:(A.start public)
            ~finals:(List.filter (fun _ -> Random.State.int rng 3 = 0) (A.states public))
            ~edges:(List.filter keep (A.edges public) @ extra)
            ()
        in
        let other = partner ~without:None in
        let views =
          [
            ("tau", C.View.tau ~observer:"me" other);
            ("tau_raw", C.View.tau_raw ~observer:"me" other);
            ("relabel", C.View.relabel ~observer:"me" other);
          ]
          @
          match labels with
          | [] -> []
          | l :: _ ->
              [ ("lacking", C.View.relabel ~observer:"me" (partner ~without:(Some l))) ]
        in
        List.iter
          (fun (view, v) ->
            let name = Printf.sprintf "random %d %s %s" seed variant view in
            if meets_agrees name p v then incr met else incr missed)
          views)
      [ ("async", async); ("sync", sync) ]
  done;
  check_bool "some pairs meet" true (!met > 0);
  check_bool "some pairs do not" true (!missed > 0)

(* --------------------------- firsts analysis ----------------------- *)

let test_firsts () =
  let p = proc (Act.seq "x" [ Act.Empty ]) in
  let firsts act = List.map C.Label.to_string (C.Firsts.first_sends p act) in
  Alcotest.(check (list string))
    "invoke" [ "me#P#aOp" ]
    (firsts (Act.invoke ~partner:"P" ~op:"aOp"));
  Alcotest.(check (list string))
    "receive contributes nothing" []
    (firsts (Act.receive ~partner:"P" ~op:"inOp"));
  Alcotest.(check (list string))
    "walk through receives" [ "me#P#aOp" ]
    (firsts
       (Act.seq "s"
          [
            Act.receive ~partner:"P" ~op:"inOp";
            Act.invoke ~partner:"P" ~op:"aOp";
          ]));
  Alcotest.(check (list string))
    "first per partner only" [ "me#P#aOp" ]
    (firsts
       (Act.seq "s"
          [ Act.invoke ~partner:"P" ~op:"aOp"; Act.invoke ~partner:"P" ~op:"bOp" ]));
  Alcotest.(check (list string))
    "stops at choice" []
    (firsts
       (Act.seq "s"
          [
            Act.switch "sw" [ Act.branch ~cond:"c" (Act.invoke ~partner:"P" ~op:"aOp") ];
            Act.invoke ~partner:"P" ~op:"bOp";
          ]));
  Alcotest.(check (list string))
    "stops at terminate" []
    (firsts (Act.seq "s" [ Act.Terminate; Act.invoke ~partner:"P" ~op:"aOp" ]))

let () =
  Alcotest.run "mapping"
    [
      ( "blocks",
        [
          Alcotest.test_case "receive" `Quick test_receive;
          Alcotest.test_case "invoke async" `Quick test_invoke_async;
          Alcotest.test_case "invoke sync" `Quick test_invoke_sync_two_messages;
          Alcotest.test_case "silent activities" `Quick test_silent_activities;
          Alcotest.test_case "terminate" `Quick test_terminate_is_final;
          Alcotest.test_case "switch" `Quick test_switch_branches;
          Alcotest.test_case "scope" `Quick test_scope_transparent;
          Alcotest.test_case "flow interleaving" `Quick test_flow_interleaves;
          Alcotest.test_case "while infinite" `Quick test_while_infinite_no_exit;
          Alcotest.test_case "while finite" `Quick test_while_finite_has_exit;
          Alcotest.test_case "nonterminating conds" `Quick
            test_nonterminating_cond_variants;
          Alcotest.test_case "reply" `Quick test_reply;
          Alcotest.test_case "sync receive" `Quick test_sync_receive;
          Alcotest.test_case "pick sync trigger" `Quick test_pick_sync_trigger;
          Alcotest.test_case "nested scopes / empty branches" `Quick
            test_nested_scopes_and_empty_branches;
          Alcotest.test_case "table merges over silent" `Quick
            test_table_merges_on_silent;
        ] );
      ( "annotations",
        [
          Alcotest.test_case "switch conjunction" `Quick test_switch_annotation;
          Alcotest.test_case "single branch silent" `Quick
            test_single_branch_no_annotation;
          Alcotest.test_case "pick optional" `Quick test_pick_no_annotation;
          Alcotest.test_case "receive-first excluded" `Quick
            test_receive_first_annotation_excluded;
          Alcotest.test_case "firsts analysis" `Quick test_firsts;
        ] );
      ( "paper",
        [
          Alcotest.test_case "fig 6 buyer public" `Quick test_fig6_buyer_public;
          Alcotest.test_case "table 1" `Quick test_table1;
          Alcotest.test_case "fig 7 accounting public" `Quick
            test_fig7_accounting_public;
          Alcotest.test_case "table paths valid" `Quick
            test_table_anchor_paths_valid;
          Alcotest.test_case "deterministic publics" `Quick
            test_generation_is_deterministic_automaton;
          Alcotest.test_case "generator corpus digests" `Quick
            test_generation_corpus;
        ] );
      ( "differential",
        [
          Alcotest.test_case "procurement and corpus families" `Quick
            test_differential_corpus;
          Alcotest.test_case "suggestion results, seeds 0-499" `Quick
            test_differential_suggestions;
          Alcotest.test_case "alphabet edge cases" `Quick
            test_differential_alphabet;
          Alcotest.test_case "random block structures" `Quick
            test_differential_random;
          Alcotest.test_case "random block structures, random atoms" `Quick
            test_differential_random_atoms;
          Alcotest.test_case "meets, suggestion results, seeds 0-499" `Quick
            test_meets_suggestions;
          Alcotest.test_case "meets, random block structures" `Quick
            test_meets_random;
        ] );
    ]
