(* lib/migrate — the batched, budgeted, journal-backed instance
   migrator: population determinism, sealed-context differential vs the
   per-call compliance API, pool-size invariance, memo/eviction
   determinism, budget deferral, equivalence with [Versions.publish],
   and kill-and-resume byte-identity (after every record, and across a
   multi-crash chain). *)

module C = Chorev
module I = C.Migration.Instance
module Cp = C.Migration.Compliance
module V = C.Migration.Versions
module Pop = C.Migrate.Population
module E = C.Migrate.Engine
module Pool = C.Parallel.Pool
module P = C.Scenario.Procurement
module Run = C.Wal.Run

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let gen = C.Public_gen.public

let buyer_pub = gen P.buyer_process
let buyer_cancel_pub = gen P.buyer_with_cancel
let buyer_once_pub = gen P.buyer_once

(* the CLI's "tracking" shape: two live versions, mixed verdicts *)
let tracking_plan ?(instances = 3_000) ?(batch = 256) ?batch_fuel
    ?(memo = 65_536) () =
  {
    E.publics = [ buyer_pub; buyer_cancel_pub ];
    target = buyer_once_pub;
    pops =
      [
        { Pop.version = 1; count = instances / 2; seed = 17; max_len = 12; prefix = "a-" };
        {
          Pop.version = 2;
          count = instances - (instances / 2);
          seed = 1_000_017;
          max_len = 12;
          prefix = "b-";
        };
      ];
    batch_size = batch;
    batch_fuel;
    memo_capacity = memo;
  }

let report_string r = Fmt.str "%a" E.pp_report r

let run_plan ?pool plan =
  let vs = E.build_plan plan in
  (E.run ~options:(E.options_of_plan ?pool plan) vs plan.E.target, vs)

let with_dir = Harness.with_dir

(* ---------------------------- population ---------------------------- *)

let test_population_deterministic () =
  let build () = E.build_plan (tracking_plan ~instances:500 ()) in
  let key (v, (i : I.t)) =
    Printf.sprintf "%d:%s:%s" v i.I.id
      (String.concat "," (List.map C.Label.to_string i.I.trace))
  in
  let a = List.map key (V.in_admission_order (build ())) in
  let b = List.map key (V.in_admission_order (build ())) in
  check_int "population size" 500 (List.length a);
  check_bool "same instances, same order, same traces" true (a = b);
  (* sampled traces replay on the version they started on *)
  let vs = build () in
  List.iter
    (fun (vnum, i) ->
      let pub = V.version_public (Option.get (V.find_version vs vnum)) in
      check_bool (Printf.sprintf "%s replays" i.I.id) true (I.valid pub i))
    (V.in_admission_order vs)

(* ----------------------- sealed-context verdicts --------------------- *)

(* The pool-shareable ctx API must agree with the original per-call
   compliance API on every sampled instance. *)
let test_ctx_differential () =
  let vs = E.build_plan (tracking_plan ~instances:400 ()) in
  let items = V.in_admission_order vs in
  let old_pubs = [ (1, buyer_pub); (2, buyer_cancel_pub) ] in
  let old_ctxs = List.map (fun (n, p) -> (n, Cp.context p)) old_pubs in
  let new_ctx = Cp.context buyer_once_pub in
  List.iter
    (fun (vnum, inst) ->
      let got = Cp.check_ctx new_ctx inst in
      let want = Cp.check buyer_once_pub inst in
      check_bool
        (Printf.sprintf "check agrees on %s" inst.I.id)
        true (got = want);
      let got_d =
        Cp.dispose_ctx
          ~old_ctx:(List.assoc vnum old_ctxs)
          ~new_ctx inst
      in
      let want_d =
        Cp.dispose
          ~old_public:(List.assoc vnum old_pubs)
          ~new_public:buyer_once_pub inst
      in
      check_bool
        (Printf.sprintf "dispose agrees on %s" inst.I.id)
        true (got_d = want_d))
    items

(* -------------------------- pool invariance -------------------------- *)

let test_pool_invariance () =
  let plan = tracking_plan () in
  let golden = report_string (fst (run_plan ~pool:Pool.sequential plan)) in
  List.iter
    (fun jobs ->
      let got = report_string (fst (run_plan ~pool:(Pool.sized jobs) plan)) in
      check_string (Printf.sprintf "report identical (jobs=%d)" jobs) golden got)
    [ 1; 2; 8 ]

(* ------------------------ memo and eviction -------------------------- *)

let test_memo_determinism () =
  let big = fst (run_plan (tracking_plan ())) in
  let migrated, finishing, stuck, fresh, hits, _ = E.totals big in
  check_int "everything classified" 3_000 (migrated + finishing + stuck);
  check_bool "memo absorbs repeats" true (hits > fresh);
  (* a pathologically tiny memo evicts constantly but must not change
     a single verdict — only the hit/fresh split *)
  let tiny = fst (run_plan (tracking_plan ~memo:2 ())) in
  let m2, f2, s2, fresh2, _, _ = E.totals tiny in
  check_bool "same verdicts under eviction" true
    ((migrated, finishing, stuck) = (m2, f2, s2));
  check_bool "eviction recomputes" true (fresh2 > fresh);
  check_string "same final digest" big.E.digest tiny.E.digest;
  (* and the tiny-memo run is itself deterministic across pool sizes *)
  let tiny8 = fst (run_plan ~pool:(Pool.sized 8) (tracking_plan ~memo:2 ())) in
  check_string "tiny memo pool-invariant" (report_string tiny)
    (report_string tiny8)

(* --------------------------- budget deferral ------------------------- *)

let test_budget_deferral () =
  (* fuel 3 cannot even finish one replay — every batch defers, and
     every instance stays exactly where it started *)
  let plan = tracking_plan ~batch_fuel:3 () in
  let before =
    List.map (fun (v, (i : I.t)) -> (v, i.I.id)) (V.in_admission_order (E.build_plan plan))
  in
  let rep, vs = run_plan plan in
  check_int "all batches deferred"
    (List.length rep.E.batches)
    (List.length (E.deferred_batches rep));
  let migrated, finishing, stuck, fresh, _, _ = E.totals rep in
  check_bool "nothing classified" true
    (migrated = 0 && finishing = 0 && stuck = 0 && fresh = 0);
  let after = List.map (fun (v, (i : I.t)) -> (v, i.I.id)) (V.in_admission_order vs) in
  check_bool "deferred instances untouched" true (before = after);
  (* deferral is deterministic across pool sizes too *)
  let rep8 = fst (run_plan ~pool:(Pool.sized 8) plan) in
  check_string "deferral pool-invariant" (report_string rep) (report_string rep8);
  (* a generous budget defers nothing and matches the unbudgeted run *)
  let generous = fst (run_plan (tracking_plan ~batch_fuel:1_000_000 ())) in
  check_int "no deferrals" 0 (List.length (E.deferred_batches generous));
  check_string "same digest as unbudgeted"
    (fst (run_plan (tracking_plan ()))).E.digest generous.E.digest

(* ---------------------- equivalence with publish --------------------- *)

(* The batched migrator must land exactly where the one-shot
   [Versions.publish] lands: same verdict counts, same final
   instance→version assignment. *)
let test_matches_versions_publish () =
  let plan = tracking_plan ~instances:600 () in
  let rep, vs_batched = run_plan plan in
  let vs_oneshot = E.build_plan plan in
  let pub = V.publish vs_oneshot buyer_once_pub in
  check_int "migrated matches" (List.length pub.V.migrated)
    (let m, _, _, _, _, _ = E.totals rep in
     m);
  check_int "finishing matches"
    (List.length pub.V.finishing_on_old)
    (let _, f, _, _, _, _ = E.totals rep in
     f);
  check_int "stuck matches" (List.length pub.V.stuck)
    (let _, _, s, _, _, _ = E.totals rep in
     s);
  check_string "same final assignment" (E.final_digest vs_oneshot)
    (E.final_digest vs_batched);
  check_string "digest in report is the assignment digest"
    (E.final_digest vs_batched) rep.E.digest

(* ------------------------- journal and resume ------------------------ *)

let test_kill_and_resume () =
  let plan = tracking_plan ~instances:1_000 ~batch:128 () in
  with_dir @@ fun base ->
  let straight =
    match E.run_journaled ~dir:(Filename.concat base "full") plan with
    | Ok r -> report_string r
    | Error e -> Alcotest.fail e
  in
  (* crash after batch 2, resume to completion *)
  let dir = Filename.concat base "crash" in
  (match E.run_journaled ~crash_after:2 ~dir plan with
  | exception Run.Simulated_crash 2 -> ()
  | Ok _ -> Alcotest.fail "expected a simulated crash"
  | Error e -> Alcotest.fail e);
  (match E.resume ~dir () with
  | Ok { E.report; replayed } ->
      check_int "two batches replayed" 2 replayed;
      check_string "resumed report byte-identical" straight
        (report_string report)
  | Error e -> Alcotest.fail e);
  (* the sealed journal replays fully and yields the same bytes *)
  (match E.resume ~dir () with
  | Ok { E.report; replayed } ->
      check_int "all batches from the journal" 8 replayed;
      check_string "sealed replay byte-identical" straight
        (report_string report)
  | Error e -> Alcotest.fail e);
  (* a second run into the same directory is refused *)
  match E.run_journaled ~dir plan with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected refusal over an existing journal"

let test_multi_crash_chain () =
  let plan = tracking_plan ~instances:1_000 ~batch:128 () in
  with_dir @@ fun base ->
  let straight =
    match E.run_journaled ~dir:(Filename.concat base "full") plan with
    | Ok r -> report_string r
    | Error e -> Alcotest.fail e
  in
  (* crash at batch 1; resume and crash again at batch 5; finally
     resume to the end — still byte-identical *)
  let dir = Filename.concat base "chain" in
  (match E.run_journaled ~crash_after:1 ~dir plan with
  | exception Run.Simulated_crash 1 -> ()
  | _ -> Alcotest.fail "expected crash 1");
  (match E.resume ~crash_after:5 ~dir () with
  | exception Run.Simulated_crash 5 -> ()
  | _ -> Alcotest.fail "expected crash 5 on the resume path");
  match E.resume ~dir () with
  | Ok { E.report; replayed } ->
      check_int "five batches replayed" 5 replayed;
      check_string "chain byte-identical" straight (report_string report)
  | Error e -> Alcotest.fail e

(* Crash after every record — plan, each batch, the seal — of a small
   plan and of one whose batches all defer. *)
let test_every_crash_point () =
  List.iter
    (fun (name, plan) ->
      with_dir @@ fun full ->
      let straight =
        match E.run_journaled ~dir:full plan with
        | Ok r -> report_string r
        | Error e -> Alcotest.fail e
      in
      Harness.every_crash_point ~name ~records:(Harness.records full)
        ~crashed:(fun ~crash_after dir -> ignore (E.run_journaled ~crash_after ~dir plan))
        ~resume:(fun _ dir ->
          match E.resume ~dir () with
          | Ok { E.report; _ } -> report_string report
          | Error e -> Alcotest.fail e)
        straight)
    [
      ("tracking", tracking_plan ~instances:300 ~batch:64 ());
      ("deferrals", tracking_plan ~instances:300 ~batch:64 ~batch_fuel:3 ());
    ]

(* deferred batches round-trip through the journal too *)
let test_resume_with_deferrals () =
  let plan = tracking_plan ~instances:600 ~batch:100 ~batch_fuel:3 () in
  with_dir @@ fun base ->
  let straight =
    match E.run_journaled ~dir:(Filename.concat base "full") plan with
    | Ok r -> report_string r
    | Error e -> Alcotest.fail e
  in
  let dir = Filename.concat base "crash" in
  (match E.run_journaled ~crash_after:3 ~dir plan with
  | exception Run.Simulated_crash _ -> ()
  | _ -> Alcotest.fail "expected crash");
  match E.resume ~dir () with
  | Ok { E.report; replayed } ->
      check_int "three deferred batches replayed" 3 replayed;
      check_string "deferred resume byte-identical" straight
        (report_string report)
  | Error e -> Alcotest.fail e

(* a journal from one plan refuses to drive another *)
let test_journal_plan_mismatch () =
  with_dir @@ fun base ->
  let dir = Filename.concat base "j" and other = Filename.concat base "other" in
  (match
     E.run_journaled ~crash_after:1 ~dir (tracking_plan ~instances:500 ~batch:100 ())
   with
  | exception Run.Simulated_crash _ -> ()
  | _ -> Alcotest.fail "expected crash");
  (* hand the journal a different (valid) plan: replay must refuse *)
  (match
     E.run_journaled ~crash_after:0 ~dir:other
       (tracking_plan ~instances:400 ~batch:100 ())
   with
  | exception Run.Simulated_crash 0 -> ()
  | _ -> Alcotest.fail "expected crash");
  Sys.rename (Filename.concat other "plan.json") (Filename.concat dir "plan.json");
  match E.resume ~dir () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected a replay mismatch error"

(* ------------------------------ bad plans ---------------------------- *)

module Json = C.Wal.Json

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let with_specs f =
  let plan = tracking_plan ~instances:200 () in
  { plan with E.pops = List.map f plan.E.pops }

(* A plan out of range is refused with a message naming the field,
   before a journaled run writes anything: a bad plan must not leave a
   run directory that neither resume nor a new run can use, so the same
   directory then takes a good run. *)
let test_bad_plans_refused () =
  List.iter
    (fun (name, plan, field) ->
      (match E.check_plan plan with
      | Error e -> check_bool (name ^ ": names " ^ field) true (contains e field)
      | Ok () -> Alcotest.failf "%s: accepted" name);
      check_bool (name ^ ": build_plan raises") true
        (match E.build_plan plan with
        | _ -> false
        | exception Invalid_argument e -> contains e field);
      with_dir @@ fun dir ->
      (match E.run_journaled ~dir plan with
      | Error e ->
          check_bool (name ^ ": journaled run names " ^ field) true (contains e field)
      | Ok _ -> Alcotest.failf "%s: journaled run accepted" name);
      check_bool (name ^ ": nothing written") false (Sys.file_exists dir);
      match E.run_journaled ~dir (tracking_plan ~instances:200 ()) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: a good plan into the same dir: %s" name e)
    [
      ("batch 0", tracking_plan ~instances:200 ~batch:0 (), "batch size 0");
      ("max_len -1", with_specs (fun s -> { s with Pop.max_len = -1 }), "max_len -1");
      ( "max_len 2^30 - 1",
        with_specs (fun s -> { s with Pop.max_len = (1 lsl 30) - 1 }),
        "max_len 1073741823" );
      ("version 3 of 2", with_specs (fun s -> { s with Pop.version = 3 }), "version 3");
      ("version 0", with_specs (fun s -> { s with Pop.version = 0 }), "version 0");
      ( "empty history",
        { (tracking_plan ~instances:200 ()) with E.publics = []; pops = [] },
        "empty version history" );
    ];
  List.iter
    (fun max_len ->
      check_bool
        (Printf.sprintf "max_len %d passes" max_len)
        true
        (E.check_plan (with_specs (fun s -> { s with Pop.max_len })) = Ok ()))
    [ 0; (1 lsl 30) - 2 ]

(* plan.json edited by hand, with its digest recomputed, to a max_len
   the sampler cannot draw: resume names the field. *)
let test_edited_plan_refused () =
  with_dir @@ fun dir ->
  (match E.run_journaled ~crash_after:0 ~dir (tracking_plan ~instances:200 ()) with
  | exception Run.Simulated_crash 0 -> ()
  | _ -> Alcotest.fail "expected a crash after the plan");
  let path = Filename.concat dir "plan.json" in
  let rec edit = function
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (fun (k, v) -> (k, if k = "max_len" then Json.Int (-1) else edit v))
             fields)
    | Json.Arr xs -> Json.Arr (List.map edit xs)
    | j -> j
  in
  (match Json.of_string (Harness.read path) with
  | Ok (Json.Obj [ kind; _; ("plan", body) ]) ->
      let body = edit body in
      let digest = Digest.to_hex (Digest.string (Json.to_string body)) in
      Harness.write path
        (Json.to_string
           (Json.Obj [ kind; ("digest", Json.Str digest); ("plan", body) ]))
  | _ -> Alcotest.fail "unexpected plan.json layout");
  match E.resume ~dir () with
  | Error e ->
      check_bool ("names the field: " ^ e) true (contains e "pops[0].max_len -1")
  | Ok _ -> Alcotest.fail "expected the edited plan to be refused"

(* ---------------------------- pinned bytes --------------------------- *)

(* Two specs sharing a prefix: the second re-starts ids s-000000 ..
   s-000999 on v2, which moves them to the back of admission order. *)
let shared_prefix_plan =
  {
    (tracking_plan ~batch:200 ()) with
    E.pops =
      [
        { Pop.version = 1; count = 1_500; seed = 5; max_len = 12; prefix = "s-" };
        { Pop.version = 2; count = 1_000; seed = 2_000_005; max_len = 12; prefix = "s-" };
      ];
  }

let three_version_plan =
  {
    (tracking_plan ~batch:200 ()) with
    E.publics = [ buyer_pub; buyer_once_pub; buyer_cancel_pub ];
    target = buyer_once_pub;
    pops =
      [
        { Pop.version = 1; count = 800; seed = 31; max_len = 12; prefix = "p-" };
        { Pop.version = 3; count = 800; seed = 3_000_031; max_len = 12; prefix = "r-" };
        { Pop.version = 2; count = 800; seed = 2_000_031; max_len = 12; prefix = "q-" };
      ];
  }

(* [pp_report] is the byte-identity anchor of the pool-size and resume
   tests, so its bytes are pinned, as MD5s, for plans that take every
   engine path: constant eviction, every batch deferred, only the first
   six deferred, re-started ids and a three-version history. A change to
   these bytes updates the literal and says why in CHANGES.md. *)
let pinned_reports =
  [
    ("tracking", tracking_plan (), "56082d5d39fa2a1600fef60a2a6b6a67");
    ("memo 2", tracking_plan ~memo:2 (), "114c15ba1096fce8dd4e20fcac1dd6c4");
    ("fuel 3", tracking_plan ~batch_fuel:3 (), "3414d53c4cc72eba5b8158601c1783b2");
    ("fuel 150", tracking_plan ~batch_fuel:150 (), "63c8a7654e131a25c2d28c48f1866476");
    ("shared prefix", shared_prefix_plan, "f7dc768acdf2ee4f746203c43850298c");
    ("three versions", three_version_plan, "1510dd05de42ebce0284583770d921fd");
  ]

let md5 s = Digest.to_hex (Digest.string s)

let test_reports_pinned () =
  List.iter
    (fun (name, plan, want) ->
      let rep, vs = run_plan plan in
      check_string (name ^ ": report bytes") want (md5 (report_string rep));
      check_string (name ^ ": report digest = final_digest") (E.final_digest vs)
        rep.E.digest)
    pinned_reports

(* The same bytes from a run killed after any of its records and
   resumed. *)
let test_reports_pinned_resumed () =
  List.iter
    (fun (name, plan, want) ->
      with_dir @@ fun full ->
      (match E.run_journaled ~dir:full plan with
      | Ok r ->
          check_string (name ^ ": journaled report bytes") want (md5 (report_string r))
      | Error e -> Alcotest.fail e);
      Harness.every_crash_point ~name ~records:(Harness.records full)
        ~crashed:(fun ~crash_after dir -> ignore (E.run_journaled ~crash_after ~dir plan))
        ~resume:(fun _ dir ->
          match E.resume ~dir () with
          | Ok { E.report; _ } -> md5 (report_string report)
          | Error e -> Alcotest.fail e)
        want)
    pinned_reports

let () =
  Alcotest.run "migrate"
    [
      ( "population",
        [ Alcotest.test_case "deterministic" `Quick test_population_deterministic ] );
      ( "verdicts",
        [
          Alcotest.test_case "ctx differential" `Quick test_ctx_differential;
          Alcotest.test_case "matches Versions.publish" `Quick
            test_matches_versions_publish;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "pool invariance" `Quick test_pool_invariance;
          Alcotest.test_case "memo and eviction" `Quick test_memo_determinism;
          Alcotest.test_case "budget deferral" `Quick test_budget_deferral;
          Alcotest.test_case "reports pinned" `Quick test_reports_pinned;
        ] );
      ( "journal",
        [
          Alcotest.test_case "kill and resume" `Quick test_kill_and_resume;
          Alcotest.test_case "multi-crash chain" `Quick test_multi_crash_chain;
          Alcotest.test_case "every crash point" `Quick test_every_crash_point;
          Alcotest.test_case "resume with deferrals" `Quick
            test_resume_with_deferrals;
          Alcotest.test_case "plan mismatch refused" `Quick
            test_journal_plan_mismatch;
          Alcotest.test_case "pinned reports across kill-and-resume" `Quick
            test_reports_pinned_resumed;
          Alcotest.test_case "bad plans refused" `Quick test_bad_plans_refused;
          Alcotest.test_case "edited plan refused" `Quick test_edited_plan_refused;
        ] );
    ]
