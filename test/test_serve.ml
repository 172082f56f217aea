(* The multi-tenant evolution service (lib/serve): wire round-trips,
   golden equality against one-shot [Evolution.run], pool-size
   invariance of whole response streams, deterministic load shedding
   under a seeded arrival order, and kill-and-restart recovery of the
   per-tenant journals. *)

module C = Chorev
module S = C.Serve
module W = C.Serve.Wire
module M = C.Choreography.Model
module Ev = C.Choreography.Evolution
module P = C.Scenario.Procurement

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let sexp = C.Bpel.Sexp.process_to_string
let procurement_sexps () = List.map (fun (_, p) -> sexp p) P.parties

let with_dir = Harness.with_dir

(* run a script through a fresh server, one cycle per [batch] *)
let run_server ?(options = S.Server.default_options) script =
  let server = S.Server.create ~options () in
  let rec batches acc = function
    | [] -> List.concat (List.rev acc)
    | lines ->
        let rec split k taken = function
          | rest when k = 0 -> (List.rev taken, rest)
          | [] -> (List.rev taken, [])
          | l :: rest -> split (k - 1) (l :: taken) rest
        in
        let chunk, rest = split options.S.Server.batch [] lines in
        let reqs =
          List.filter_map
            (fun l -> Result.to_option (W.request_of_string l))
            chunk
        in
        batches (List.map W.response_to_string (S.Server.cycle server reqs) :: acc) rest
  in
  batches [] script

(* --------------------------- wire protocol ------------------------- *)

let test_wire_roundtrip () =
  let reqs =
    [
      { W.id = 1; op = W.Register { tenant = "t"; processes = procurement_sexps () } };
      {
        W.id = 2;
        op =
          W.Evolve
            {
              tenant = "t";
              owner = "A";
              changed = sexp P.accounting_cancel;
              klass = W.Interactive;
            };
      };
      { W.id = 3; op = W.Query { tenant = "t" } };
      { W.id = 4; op = W.Migrate_status { tenant = "t" } };
      {
        W.id = 5;
        op = W.Publish { tenant = "t"; party = "A"; instances = 500; seed = 7 };
      };
      { W.id = 6; op = W.Stats };
    ]
  in
  List.iter
    (fun r ->
      match W.request_of_string (W.request_to_string r) with
      | Ok r' -> check_bool "request round-trips" true (r = r')
      | Error (_, e) -> Alcotest.fail e)
    reqs;
  (* responses: every body the server emits round-trips *)
  let resps =
    [
      {
        W.id = 1;
        result =
          Ok
            (W.Registered
               { tenant = "t"; parties = [ "A"; "B" ]; versions = [ 1; 1 ]; digest = "d" });
      };
      {
        W.id = 2;
        result =
          Ok (W.Evolved { consistent = true; rounds = 2; digest = "d"; degraded = false });
      };
      {
        W.id = 3;
        result =
          Ok
            (W.Queried
               { parties = [ "A" ]; consistent = false; digest = "d"; evolutions = 3 });
      };
      {
        W.id = 4;
        result =
          Ok
            (W.Migration
               [
                 {
                   W.party = "A";
                   service = "svc-000000";
                   version = 2;
                   running = 120;
                   schemas = 2;
                 };
               ]);
      };
      {
        W.id = 5;
        result =
          Ok
            (W.Published
               {
                 party = "A";
                 to_version = 3;
                 migrated = 400;
                 finishing = 90;
                 stuck = 10;
                 total = 500;
               });
      };
      { W.id = 6; result = Error `Overloaded };
      { W.id = 7; result = Error (`Unknown_tenant "nope") };
    ]
  in
  List.iter
    (fun r ->
      match W.response_of_string (W.response_to_string r) with
      | Ok r' -> check_bool "response round-trips" true (r = r')
      | Error e -> Alcotest.fail e)
    resps;
  (* malformed lines keep the id when one is recoverable *)
  (match W.request_of_string {|{"v":1,"id":9,"op":"nope"}|} with
  | Error (9, _) -> ()
  | _ -> Alcotest.fail "expected an id-9 error");
  match W.request_of_string {|{"v":2,"id":9,"op":"stats"}|} with
  | Error (9, msg) ->
      check_bool "version gate" true
        (String.length msg > 0 && String.sub msg 0 11 = "unsupported")
  | _ -> Alcotest.fail "expected a version error"

(* ------------------------- golden vs Evolution.run ------------------ *)

(* A single-tenant evolve through the server equals the one-shot
   [Evolution.run] verdict — consistency, round count and final model
   digest — at every pool size. *)
let test_golden_single_tenant () =
  let direct =
    match
      Ev.run (M.of_processes (List.map snd P.parties)) ~owner:"A"
        ~changed:P.accounting_cancel
    with
    | Ok r -> r
    | Error _ -> Alcotest.fail "direct run failed"
  in
  List.iter
    (fun jobs ->
      let options = { S.Server.default_options with jobs } in
      let server = S.Server.create ~options () in
      let resp op = S.Server.handle server { W.id = 1; op } in
      (match
         (resp (W.Register { tenant = "proc"; processes = procurement_sexps () }))
           .result
       with
      | Ok (W.Registered { parties; versions; _ }) ->
          check_bool "three parties" true (parties = [ "A"; "B"; "L" ]);
          check_bool "all v1" true (versions = [ 1; 1; 1 ])
      | _ -> Alcotest.fail "register failed");
      match
        (resp
           (W.Evolve
              {
                tenant = "proc";
                owner = "A";
                changed = sexp P.accounting_cancel;
                klass = W.Bulk;
              }))
          .result
      with
      | Ok (W.Evolved { consistent; rounds; digest; degraded }) ->
          check_bool
            (Printf.sprintf "consistent matches (jobs=%d)" jobs)
            direct.Ev.consistent consistent;
          check_int "rounds match" (List.length direct.Ev.rounds) rounds;
          check_string "digest matches"
            (C.Journal.Evolve.model_digest direct.Ev.choreography)
            digest;
          check_bool "not degraded" false degraded
      | _ -> Alcotest.fail "evolve failed")
    [ 1; 2; 8 ]

(* ------------------------ pool-size invariance ---------------------- *)

(* N tenants, mixed script: the full response stream is byte-identical
   at pool sizes 1, 2 and 8, and equals the scheduler-free oracle. *)
let test_pool_invariance () =
  let script = S.Driver.gen_script ~tenants:6 ~requests:40 ~seed:11 () in
  let golden = S.Driver.oracle script in
  check_int "one response per line" (List.length script) (List.length golden);
  List.iter
    (fun jobs ->
      let got =
        run_server ~options:{ S.Server.default_options with jobs } script
      in
      check_bool
        (Printf.sprintf "stream identical to oracle (jobs=%d)" jobs)
        true
        (List.for_all2 String.equal golden got))
    [ 1; 2; 8 ]

(* --------------------------- load shedding -------------------------- *)

let test_shed_determinism () =
  let script = S.Driver.gen_script ~tenants:4 ~requests:60 ~seed:3 () in
  (* over-commit: read 32 per cycle, admit 8, deadline classes only 4 *)
  let options =
    {
      S.Server.default_options with
      batch = 32;
      queue_capacity = 8;
      headroom = Some 4;
      jobs = 2;
    }
  in
  let shed_ids run =
    List.filter_map
      (fun line ->
        match W.response_of_string line with
        | Ok { W.id; result = Error `Overloaded } -> Some id
        | _ -> None)
      run
  in
  let a = run_server ~options script in
  let b = run_server ~options script in
  let c = run_server ~options:{ options with jobs = 8 } script in
  check_bool "some requests shed" true (shed_ids a <> []);
  check_bool "shed set reproducible" true (shed_ids a = shed_ids b);
  check_bool "shed set pool-size-invariant" true (shed_ids a = shed_ids c);
  check_bool "whole stream reproducible" true (List.for_all2 String.equal a b);
  check_bool "whole stream pool-size-invariant" true
    (List.for_all2 String.equal a c);
  (* the surviving responses equal the oracle of the *effective*
     script — the one with the shed requests removed (a shed evolve
     mutates nothing, so the server's history is the effective one) *)
  let shed = shed_ids a in
  let effective =
    List.filter
      (fun line ->
        match W.request_of_string line with
        | Ok { W.id; _ } -> not (List.mem id shed)
        | Error _ -> true)
      script
  in
  let survivors =
    List.filter
      (fun line ->
        match W.response_of_string line with
        | Ok { W.result = Error `Overloaded; _ } -> false
        | _ -> true)
      a
  in
  List.iter2
    (check_string "surviving response matches effective-script oracle")
    (S.Driver.oracle effective) survivors

(* ------------------------ journals and restart ---------------------- *)

let recover root =
  match S.Tenant.recover ~journal_root:root () with
  | Ok r -> r
  | Error e -> Alcotest.failf "recover: %s" e

let test_restart_replays () =
  with_dir @@ fun root ->
  let options =
    { S.Server.default_options with journal_root = Some root; jobs = 2 }
  in
  let server = S.Server.create ~options () in
  let resp server op = S.Server.handle server { W.id = 1; op } in
  (match
     (resp server (W.Register { tenant = "proc"; processes = procurement_sexps () }))
       .result
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "register failed");
  let evolved =
    resp server
      (W.Evolve
         {
           tenant = "proc";
           owner = "A";
           changed = sexp P.accounting_cancel;
           klass = W.Bulk;
         })
  in
  (* a publish between the evolve and the restart: its population must
     come back identically from the publish log *)
  (match
     (resp server
        (W.Publish { tenant = "proc"; party = "A"; instances = 200; seed = 5 }))
       .result
   with
  | Ok (W.Published { party = "A"; total = 200; _ }) -> ()
  | _ -> Alcotest.fail "publish failed");
  let query1 = resp server (W.Query { tenant = "proc" }) in
  let migrate1 = resp server (W.Migrate_status { tenant = "proc" }) in
  (* restart: a second server over the same root replays the journals *)
  let server2 = S.Server.create ~options () in
  check_int "one tenant recovered" 1 (S.Server.recovered server2);
  check_string "query byte-identical after restart"
    (W.response_to_string query1)
    (W.response_to_string (resp server2 (W.Query { tenant = "proc" })));
  check_string "migrate-status byte-identical after restart"
    (W.response_to_string migrate1)
    (W.response_to_string (resp server2 (W.Migrate_status { tenant = "proc" })));
  (* versions advanced for the parties whose publics changed *)
  (match (evolved.result, migrate1.result) with
  | Ok (W.Evolved { consistent; _ }), Ok (W.Migration ps) ->
      check_bool "evolution consistent" true consistent;
      check_bool "some party version advanced" true
        (List.exists (fun p -> p.W.version > 1) ps);
      check_bool "published population is visible" true
        (List.exists (fun p -> p.W.party = "A" && p.W.running > 0) ps)
  | _ -> Alcotest.fail "evolve or migrate-status failed");
  (* duplicate registration refused after recovery, too *)
  match
    (resp server2 (W.Register { tenant = "proc"; processes = procurement_sexps () }))
      .result
  with
  | Error (`Duplicate_tenant _) -> ()
  | _ -> Alcotest.fail "expected duplicate-tenant"

(* A crash in the middle of a journaled evolution (after round 1's
   commit) is finished by recovery: the recovered store answers
   exactly like a server that never crashed. *)
let test_crash_mid_evolve () =
  with_dir @@ fun root1 ->
  with_dir @@ fun root2 ->
  let run_with root crash_after =
    let store = S.Tenant.create ~journal_root:root () in
    (match
       S.Tenant.register store "proc"
         ~processes:(List.map snd P.parties)
     with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "register failed");
    match
      S.Tenant.evolve store ~config:C.Config.default ?crash_after "proc"
        ~owner:"A" ~changed:P.accounting_cancel
    with
    | exception C.Wal.Run.Simulated_crash _ -> `Crashed
    | Ok _ -> `Done
    | Error _ -> Alcotest.fail "evolve failed"
  in
  check_bool "uninterrupted run completes" true (run_with root1 None = `Done);
  check_bool "crashed run crashes" true (run_with root2 (Some 1) = `Crashed);
  let q root =
    let store, n = recover root in
    check_int "tenant recovered" 1 n;
    match
      (S.Tenant.query store "proc", S.Tenant.migrate_status store "proc")
    with
    | Ok q, Ok m ->
        (W.response_to_string { W.id = 1; result = Ok q },
         W.response_to_string { W.id = 2; result = Ok m })
    | _ -> Alcotest.fail "query failed"
  in
  let q1, m1 = q root1 and q2, m2 = q root2 in
  check_string "crashed+recovered query equals uninterrupted" q1 q2;
  check_string "crashed+recovered migrate-status equals uninterrupted" m1 m2

let find s sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else go (i + 1)
  in
  go 0

let contains s sub = find s sub <> None

let replace ~sub ~by s =
  match find s sub with
  | Some i ->
      String.sub s 0 i ^ by
      ^ String.sub s (i + String.length sub) (String.length s - i - String.length sub)
  | None -> Alcotest.failf "no %s to replace" sub

(* One tenant's durable history: registration, evolves and publishes.
   [apply] renders each op's response as the wire would. *)
let tenant_ops =
  [
    `Register;
    `Evolve P.accounting_cancel;
    `Publish ("A", 50, 5);
    `Evolve P.accounting_once;
    `Publish ("B", 30, 7);
  ]

let apply ?crash_after store op =
  let result =
    match op with
    | `Register -> S.Tenant.register store "proc" ~processes:(List.map snd P.parties)
    | `Evolve changed ->
        S.Tenant.evolve store ~config:C.Config.default ?crash_after "proc" ~owner:"A"
          ~changed
    | `Publish (party, instances, seed) ->
        S.Tenant.publish store "proc" ~party ~instances ~seed
  in
  W.response_to_string { W.id = 0; result }

let final store =
  List.map
    (fun result -> W.response_to_string { W.id = 0; result })
    [ S.Tenant.query store "proc"; S.Tenant.migrate_status store "proc" ]

let evolve_dir root k = Filename.concat root (Printf.sprintf "proc/evolve-%06d" k)

(* Kill the store after every durable record of the history — the
   tenant's plan and publishes, each evolve's plan, rounds and seal —
   then recover and play the rest: every later response and the final
   state equal the uninterrupted run's. *)
let test_tenant_crash_points () =
  let ops = Array.of_list tenant_ops in
  let responses, records, final_expected =
    with_dir @@ fun root ->
    let store = S.Tenant.create ~journal_root:root () in
    let evolves = ref 0 and records = Array.make (Array.length ops) (-1) in
    let responses =
      Array.mapi
        (fun i op ->
          let r = apply store op in
          (match op with
          | `Evolve _ ->
              records.(i) <- Harness.records (evolve_dir root !evolves);
              incr evolves
          | _ -> ());
          r)
        ops
    in
    (responses, records, final store)
  in
  let points =
    List.concat
      (List.init (Array.length ops) (fun i ->
           (i, None) :: List.init (records.(i) + 1) (fun k -> (i, Some k))))
  in
  List.iter
    (fun (i, crash_after) ->
      with_dir @@ fun root ->
      let name =
        Printf.sprintf "op %d, crash %s" i
          (match crash_after with None -> "after it" | Some k -> string_of_int k)
      in
      let store = S.Tenant.create ~journal_root:root () in
      for j = 0 to i - 1 do ignore (apply store ops.(j)) done;
      (match apply ?crash_after store ops.(i) with
      | exception C.Wal.Run.Simulated_crash _ -> ()
      | _ -> if crash_after <> None then Alcotest.failf "%s: no crash" name);
      let store, n = recover root in
      check_int (name ^ ": recovered") 1 n;
      for j = i + 1 to Array.length ops - 1 do
        check_string (Printf.sprintf "%s: response %d" name j) responses.(j)
          (apply store ops.(j))
      done;
      Alcotest.(check (list string))
        (name ^ ": final state") final_expected (final store))
    points

(* The last evolve was killed before its first record was durable: an
   empty or torn journal beside its plan. Recovery runs it from the
   start. *)
let test_tenant_killed_before_first_record () =
  let uninterrupted =
    with_dir @@ fun root ->
    let store = S.Tenant.create ~journal_root:root () in
    List.iter
      (fun op -> ignore (apply store op))
      [ `Register; `Evolve P.accounting_cancel ];
    final store
  in
  List.iter
    (fun (what, contents) ->
      with_dir @@ fun root ->
      let store = S.Tenant.create ~journal_root:root () in
      ignore (apply store `Register);
      (match apply ~crash_after:1 store (`Evolve P.accounting_cancel) with
      | exception C.Wal.Run.Simulated_crash 1 -> ()
      | _ -> Alcotest.fail "expected a crash");
      Harness.write (Harness.journal (evolve_dir root 0)) contents;
      let store, _ = recover root in
      Alcotest.(check (list string))
        (what ^ ": recovered state") uninterrupted (final store))
    [ ("empty journal", ""); ("torn first line", {|{"crc":"0f|}) ]

(* The reader ends a bare atom at a carriage return, so an atom holding
   one must be written quoted for the tenant's plan to read back: a
   durable tenant whose buyer process is named ["buyer\rv1"] recovers. *)
let test_recover_cr_atom () =
  with_dir @@ fun root ->
  let processes =
    List.map
      (fun (_, p) ->
        if p == P.buyer_process then C.Bpel.Process.with_name p "buyer\rv1"
        else p)
      P.parties
  in
  let store = S.Tenant.create ~journal_root:root () in
  (match S.Tenant.register store "acme" ~processes with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "register failed");
  let query store =
    W.response_to_string { W.id = 0; result = S.Tenant.query store "acme" }
  in
  let store', n = recover root in
  check_int "tenants recovered" 1 n;
  check_string "recovered tenant answers as before" (query store)
    (query store')

(* A damaged journal root is an [Error] naming the file — and
   [Server.create] raises the documented [Invalid_argument] — never an
   uncaught exception. *)
let test_damaged_root () =
  let damaged what path edit =
    with_dir @@ fun root ->
    let store = S.Tenant.create ~journal_root:root () in
    List.iter (fun op -> ignore (apply store op)) tenant_ops;
    let path = Filename.concat root path in
    Harness.write path (edit (Harness.read path));
    (match S.Tenant.recover ~journal_root:root () with
    | Ok _ -> Alcotest.failf "%s: recovery must fail" what
    | Error e ->
        check_bool (what ^ ": error names the file") true
          (String.starts_with ~prefix:root e));
    let options = { S.Server.default_options with journal_root = Some root } in
    match S.Server.create ~options () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: Server.create must refuse" what
  in
  damaged "tenant plan" "proc/plan.json" (replace ~sub:{|"seq":0|} ~by:{|"seq":"x"|});
  damaged "tenant journal" "proc/journal.jsonl" (fun s -> "garbage\n" ^ s);
  damaged "evolve journal" "proc/evolve-000001/journal.jsonl"
    (replace ~sub:{|"rec":"round"|} ~by:{|"rec":"rounD"|})

(* Durable and in-memory stores answer the same [Evolved] body, also
   when a starved budget degrades the run. *)
let test_durable_degraded () =
  let config =
    C.Config.with_budgets
      ~op_budget:{ C.Guard.Budget.fuel = Some 3; timeout_s = None }
      ~round_budget:{ C.Guard.Budget.fuel = Some 6; timeout_s = None }
      C.Config.default
  in
  let evolved journal_root =
    let store = S.Tenant.create ?journal_root () in
    ignore (S.Tenant.register store "proc" ~processes:(List.map snd P.parties));
    W.response_to_string
      {
        W.id = 0;
        result =
          S.Tenant.evolve store ~config "proc" ~owner:"A" ~changed:P.accounting_cancel;
      }
  in
  let memory = evolved None in
  check_bool "starved run degrades" true (contains memory {|"degraded":true|});
  with_dir @@ fun root ->
  check_string "durable body equals in-memory" memory (evolved (Some root))

(* ----------------------------- pipe mode ---------------------------- *)

let test_pipe_mode () =
  let script = S.Driver.gen_script ~tenants:3 ~requests:12 ~seed:5 () in
  let script = script @ [ "this is not json"; {|{"v":1,"id":99,"op":"stats"}|} ] in
  let infile = Harness.fresh_dir () and outfile = Harness.fresh_dir () in
  Fun.protect ~finally:(fun () -> Harness.rm_rf infile; Harness.rm_rf outfile)
  @@ fun () ->
  Out_channel.with_open_text infile (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) script);
  let server = S.Server.create () in
  let served =
    In_channel.with_open_text infile (fun ic ->
        Out_channel.with_open_text outfile (fun oc ->
            S.Server.run_pipe server ic oc))
  in
  check_int "every line answered" (List.length script) served;
  let out =
    In_channel.with_open_text outfile In_channel.input_lines
    |> List.filter (fun l -> String.trim l <> "")
  in
  check_int "one response per line" (List.length script) (List.length out);
  (* the bad line got a bad-request, the stats line got a snapshot *)
  let nth n = W.response_of_string (List.nth out n) in
  (match nth (List.length out - 2) with
  | Ok { W.result = Error (`Bad_request _); _ } -> ()
  | _ -> Alcotest.fail "expected bad-request");
  match nth (List.length out - 1) with
  | Ok { W.id = 99; result = Ok (W.Stats_snapshot fields); _ } ->
      check_bool "stats has tenants field" true
        (List.mem_assoc "tenants" fields)
  | _ -> Alcotest.fail "expected stats snapshot"

let () =
  Alcotest.run "serve"
    [
      ("wire", [ Alcotest.test_case "round-trips" `Quick test_wire_roundtrip ]);
      ( "golden",
        [
          Alcotest.test_case "single tenant vs Evolution.run" `Quick
            test_golden_single_tenant;
          Alcotest.test_case "pool-size invariance" `Quick test_pool_invariance;
        ] );
      ( "shedding",
        [ Alcotest.test_case "deterministic" `Quick test_shed_determinism ] );
      ( "durability",
        [
          Alcotest.test_case "restart replays" `Quick test_restart_replays;
          Alcotest.test_case "crash mid-evolve" `Quick test_crash_mid_evolve;
          Alcotest.test_case "every crash point" `Quick test_tenant_crash_points;
          Alcotest.test_case "killed before the first record" `Quick
            test_tenant_killed_before_first_record;
          Alcotest.test_case "damaged root is an error" `Quick test_damaged_root;
          Alcotest.test_case "durable degraded equals in-memory" `Quick
            test_durable_degraded;
          Alcotest.test_case "carriage return in a process name" `Quick
            test_recover_cr_atom;
        ] );
      ("pipe", [ Alcotest.test_case "ndjson loop" `Quick test_pipe_mode ]);
    ]
