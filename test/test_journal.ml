(* Durable runs (lib/wal/run.ml) and their evolve kind (lib/journal):
   plan and record round-trips, torn tails at every byte offset and
   corruption; the central crash-safety property — kill after any
   record + resume equals the uninterrupted run, byte for byte, for the
   paper scenarios, a hub, and 25 random workloads; and the cases where
   the evolve, migrate, rollback and tenant logs once disagreed. *)

module C = Chorev
module M = C.Choreography.Model
module Ev = C.Choreography.Evolution
module JE = C.Journal.Evolve
module Json = C.Wal.Json
module Run = C.Wal.Run
module ER = Run.Make (JE.Kind)
module E = C.Migrate.Engine
module Rollback = C.Repair.Rollback
module P = C.Scenario.Procurement
module H = Harness

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let with_dir = H.with_dir
let procurement () = M.of_processes (List.map snd P.parties)
let ok = function Ok x -> x | Error e -> Alcotest.fail e

(* ------------------------------ format ------------------------------ *)

let sample_records =
  [
    JE.Round
      {
        index = 0;
        originator = "A";
        adapted = [ ("B", P.buyer_with_cancel); ("L", P.logistics_process) ];
        summary = "round by A (public changed):\n  B: variant";
      };
    JE.Done { consistent = true; digest = "abcd" };
  ]

let sample_plan () =
  { JE.model = procurement (); owner = "A"; changed = P.accounting_cancel }

let test_record_roundtrip () =
  List.iter
    (fun r ->
      match Json.of_string (Json.to_string (JE.Kind.record_to_json r)) with
      | Error e -> Alcotest.failf "reparse failed: %s" e
      | Ok j -> (
          match JE.Kind.record_of_json j with
          | Error e -> Alcotest.failf "decode failed: %s" e
          | Ok r' -> check_bool "record round-trips" true (r = r')))
    sample_records

let committed dir =
  let run = ok (ER.create ~dir (sample_plan ())) in
  List.iter (ER.commit run) sample_records

let test_journal_file_roundtrip () =
  with_dir @@ fun dir ->
  committed dir;
  let l = ok (ER.load ~dir) in
  check_bool "not torn" false l.ER.torn;
  check_bool "sealed" true l.ER.sealed;
  check_bool "all records back" true (l.ER.records = sample_records)

let test_torn_tail_dropped () =
  with_dir @@ fun dir ->
  committed dir;
  (* simulate a crash mid-append: a partial line with no newline *)
  let oc = open_out_gen [ Open_append ] 0o644 (H.journal dir) in
  output_string oc {|{"crc":"dead","body":{"rec":"rou|};
  close_out oc;
  let l = ok (ER.load ~dir) in
  check_bool "torn flagged" true l.ER.torn;
  check_int "tail dropped" (List.length sample_records) (List.length l.ER.records)

let test_corrupt_middle_is_error () =
  with_dir @@ fun dir ->
  committed dir;
  (* flip one byte inside the first line's body *)
  let b = Bytes.of_string (H.read (H.journal dir)) in
  Bytes.set b 60 (if Bytes.get b 60 = 'A' then 'Z' else 'A');
  H.write (H.journal dir) (Bytes.to_string b);
  match ER.load ~dir with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corruption before the tail must be an error"

(* Cutting the last record at any byte leaves exactly the committed
   prefix, flagged torn; [reopen] cuts the tail away before the next
   commit. *)
let test_torn_at_every_offset () =
  with_dir @@ fun dir ->
  committed dir;
  let full = H.read (H.journal dir) in
  let first = String.index full '\n' + 1 in
  for off = first to String.length full - 1 do
    H.write (H.journal dir) (String.sub full 0 off);
    let l = ok (ER.load ~dir) in
    check_bool (Printf.sprintf "prefix at byte %d" off) true
      (l.ER.records = [ List.hd sample_records ]);
    check_bool (Printf.sprintf "torn at byte %d" off) (off > first) l.ER.torn;
    check_int (Printf.sprintf "valid bytes at %d" off) first l.ER.valid_bytes
  done;
  H.write (H.journal dir) (String.sub full 0 (String.length full - 3));
  let l = ok (ER.load ~dir) in
  ER.commit (ER.reopen ~dir l) (List.nth sample_records 1);
  check_string "reopen cut the torn tail" full (H.read (H.journal dir))

let test_snapshot_roundtrip () =
  with_dir @@ fun dir ->
  let plan = sample_plan () in
  ignore (ok (ER.create ~dir plan));
  let l = ok (ER.load ~dir) in
  check_string "model digest preserved"
    (JE.model_digest plan.JE.model)
    (JE.model_digest l.ER.plan.JE.model);
  check_string "changed process preserved"
    (C.Bpel.Sexp.process_to_string P.accounting_cancel)
    (C.Bpel.Sexp.process_to_string l.ER.plan.JE.changed);
  check_bool "records are empty" true (l.ER.records = [])

(* [model_digest] is on the serve wire and in every evolve seal, so its
   bytes are pinned: the procurement model, and the two-party models of
   [Gen_process.pair] seeds 0-9. *)
let test_model_digest_pinned () =
  check_string "procurement" "622726fcef7c10d8f22a80c3883a1cd1"
    (JE.model_digest (procurement ()));
  List.iteri
    (fun seed expected ->
      let a, b = C.Workload.Gen_process.pair ~seed () in
      check_string
        (Printf.sprintf "pair seed %d" seed)
        expected
        (JE.model_digest (M.of_processes [ a; b ])))
    [
      "2c331e2d4f4843103f5b208ffd83cc22"; "59d884d664e9c9bb2d1e8e2a9b00cfc7";
      "b910454ea24e6b5ee64e1f1ac4239baf"; "8682945496a9b1348299075a05dc4774";
      "43f9f2118a683a1f08db187cf9b36dc9"; "8d3e52c8f1dfe90e350c3e727c17a94b";
      "78e9b1dcb62f2b49135853d81e94d2c8"; "262fb5735bc511fe93b76a387040b024";
      "08394eb82ae5976a2088ea578505f9e4"; "4edc4964b84d74120e9ba4885cf0e518";
    ]

(* A crashed run whose plan is missing, unreadable or edited is
   damaged: loading it — and so resuming it — is an [Error], never an
   escaping exception. *)
let test_damaged_snapshot_is_error () =
  let crashed dir =
    match
      JE.run ~crash_after:1 ~dir (procurement ()) ~owner:"A"
        ~changed:P.accounting_cancel
    with
    | exception Run.Simulated_crash _ -> ()
    | Ok _ | Error _ -> Alcotest.fail "expected a simulated crash"
  in
  let plan dir = Filename.concat dir "plan.json" in
  let expect_error what dir =
    match JE.resume ~dir () with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "resume with %s must fail" what
  in
  (with_dir @@ fun dir ->
   crashed dir;
   Sys.remove (plan dir);
   expect_error "no plan.json" dir);
  (with_dir @@ fun dir ->
   crashed dir;
   Sys.remove (plan dir);
   Sys.mkdir (plan dir) 0o755;
   expect_error "an unreadable plan.json" dir);
  with_dir @@ fun dir ->
  crashed dir;
  let text = H.read (plan dir) in
  let i = String.length text - 20 in
  H.write (plan dir)
    (String.mapi (fun j c -> if j = i then (if c = 'a' then 'b' else 'a') else c) text);
  expect_error "an edited plan.json" dir

(* ------------------------- crash-safety oracle ---------------------- *)

let outcome_text o = Fmt.str "%a" JE.pp_outcome o

(* The uninterrupted journaled run must agree with the plain
   [Evolution.run] oracle... *)
let assert_matches_evolution name t ~owner ~changed (o : JE.outcome) =
  match Ev.run t ~owner ~changed with
  | Error (`Unknown_party p) -> Alcotest.failf "unknown party %s" p
  | Ok rep ->
      check_bool (name ^ ": consistent matches oracle") rep.Ev.consistent
        o.JE.report.Ev.consistent;
      check_string (name ^ ": digest matches oracle")
        (JE.model_digest rep.Ev.choreography)
        o.JE.digest;
      Alcotest.(check (list string))
        (name ^ ": round logs match oracle")
        (List.map (Fmt.str "%a" Ev.pp_round) rep.Ev.rounds)
        o.JE.round_logs

(* ...and a run killed right after committing any record — the plan,
   each round, the seal — must, after resume, produce the identical
   outcome. *)
let assert_crash_resume_identical name t ~owner ~changed =
  with_dir @@ fun full_dir ->
  let full =
    match JE.run ~dir:full_dir t ~owner ~changed with
    | Ok o -> o
    | Error e -> Alcotest.failf "%s: full run failed: %s" name e
  in
  assert_matches_evolution name t ~owner ~changed full;
  let n_rounds = List.length full.JE.round_logs in
  check_bool (name ^ ": at least one round") true (n_rounds >= 1);
  H.every_crash_point ~name ~records:(H.records full_dir)
    ~crashed:(fun ~crash_after dir ->
      ignore (JE.run ~crash_after ~dir t ~owner ~changed))
    ~resume:(fun k dir ->
      match JE.resume ~dir () with
      | Error e -> Alcotest.failf "%s: resume after record %d: %s" name k e
      | Ok resumed -> (
          check_int
            (Printf.sprintf "%s: replayed %d rounds" name k)
            (min k n_rounds) resumed.JE.replayed;
          (* resuming a sealed journal just reports it, identically *)
          match JE.resume ~dir () with
          | Error e -> Alcotest.failf "%s: double resume: %s" name e
          | Ok again ->
              check_string
                (Printf.sprintf "%s: idempotent resume" name)
                (outcome_text resumed) (outcome_text again);
              outcome_text resumed))
    (outcome_text full)

let test_crash_resume_procurement () =
  let t = procurement () in
  assert_crash_resume_identical "cancel" t ~owner:"A"
    ~changed:P.accounting_cancel;
  assert_crash_resume_identical "once" t ~owner:"A" ~changed:P.accounting_once

let hub () =
  let hub, spokes = C.Workload.Scale.hub 4 in
  let t = M.of_processes (hub :: spokes) in
  let changed =
    C.Change.Ops.apply_exn
      (C.Change.Ops.Insert_activity
         {
           path = [];
           pos = 0;
           act = C.Bpel.Activity.invoke ~partner:"P0" ~op:"noticeOp";
         })
      hub
  in
  (t, changed)

let test_crash_resume_hub () =
  let t, changed = hub () in
  assert_crash_resume_identical "hub-4" t ~owner:"HUB" ~changed

(* 25 random two-party workloads, killed after round 1. *)
let random_case seed =
  let pa, pb = C.Workload.Gen_process.pair ~seed () in
  let t = M.of_processes [ pa; pb ] in
  let changed =
    match C.Workload.Gen_change.additive ~seed pa with
    | Some op -> C.Change.Ops.apply_exn op pa
    | None -> pa
  in
  (t, changed)

let test_crash_resume_random_25 () =
  for seed = 0 to 24 do
    let t, changed = random_case seed in
    with_dir @@ fun full_dir ->
    let full =
      match JE.run ~dir:full_dir t ~owner:"A" ~changed with
      | Ok o -> o
      | Error e -> Alcotest.failf "seed %d: %s" seed e
    in
    assert_matches_evolution (Printf.sprintf "seed %d" seed) t ~owner:"A"
      ~changed full;
    with_dir @@ fun dir ->
    match JE.run ~crash_after:1 ~dir t ~owner:"A" ~changed with
    | exception Run.Simulated_crash _ -> (
        match JE.resume ~dir () with
        | Error e -> Alcotest.failf "seed %d resume: %s" seed e
        | Ok resumed ->
            check_string
              (Printf.sprintf "seed %d byte-identical" seed)
              (outcome_text full) (outcome_text resumed))
    | Ok _ | Error _ -> Alcotest.failf "seed %d: expected crash" seed
  done

let full_cancel () =
  with_dir @@ fun dir ->
  let o = ok (JE.run ~dir (procurement ()) ~owner:"A" ~changed:P.accounting_cancel) in
  (outcome_text o, H.records dir)

let crash_cancel ~crash_after dir =
  match
    JE.run ~crash_after ~dir (procurement ()) ~owner:"A" ~changed:P.accounting_cancel
  with
  | exception Run.Simulated_crash _ -> ()
  | _ -> Alcotest.fail "expected crash"

(* torn tail after a real crash: resume still reaches the full outcome *)
let test_resume_with_torn_tail () =
  let full, _ = full_cancel () in
  with_dir @@ fun dir ->
  crash_cancel ~crash_after:1 dir;
  let oc = open_out_gen [ Open_append ] 0o644 (H.journal dir) in
  output_string oc {|{"crc":"0123","body":{"rec":"round","index":1,"orig|};
  close_out oc;
  check_string "torn tail ignored" full (outcome_text (ok (JE.resume ~dir ())))

let test_run_refuses_existing_journal () =
  let t = procurement () in
  with_dir @@ fun dir ->
  ignore (ok (JE.run ~dir t ~owner:"A" ~changed:P.accounting_cancel));
  match JE.run ~dir t ~owner:"A" ~changed:P.accounting_cancel with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "second run into the same dir must be refused"

(* ------------------ where the four logs once drifted ---------------- *)

(* Killed before the first record was durable: the journal is empty,
   missing, or holds one torn line. The plan alone resumes from the
   start. *)
let test_killed_before_first_record () =
  let full, records = full_cancel () in
  List.iter
    (fun (what, damage) ->
      with_dir @@ fun dir ->
      crash_cancel ~crash_after:1 dir;
      damage dir;
      check_string (what ^ ": resumed from the start") full
        (outcome_text (ok (JE.resume ~dir ())));
      check_int (what ^ ": journal rewritten") records (H.records dir))
    [
      ("empty journal", fun dir -> H.write (H.journal dir) "");
      ("torn first line", fun dir -> H.write (H.journal dir) {|{"crc":"01|});
      ("no journal", fun dir -> Sys.remove (H.journal dir));
    ]

let tracking_plan () =
  let gen = C.Public_gen.public in
  {
    E.publics = [ gen P.buyer_process ];
    target = gen P.buyer_once;
    pops =
      [
        { C.Migrate.Population.version = 1; count = 200; seed = 3; max_len = 10;
          prefix = "i-" };
      ];
    batch_size = 64;
    batch_fuel = None;
    memo_capacity = 64;
  }

let rollback_plan =
  {
    Rollback.owner = "A";
    cone = [ "A"; "B" ];
    prelude = "rolled back\n";
    pre = [ ("A", "(pre A)"); ("B", "(pre B)") ];
    state = [ ("A", "(post A)"); ("B", "(post B)"); ("C", "(post C)") ];
  }

let sealed_rollback dir =
  Rollback.restore_all (ok (Rollback.start ~dir rollback_plan))
    ~restore:(fun ~party:_ ~pre:_ -> ())

let zeros = String.make 32 '0'

(* Rewrite a sealed run's last record as [r] — with a valid checksum and
   plan digest, as a deliberate forger would. *)
module Forge (K : Run.KIND) = struct
  module R = Run.Make (K)

  let seal dir r =
    let text = H.read (H.journal dir) in
    H.write (H.journal dir)
      (String.sub text 0 (String.rindex_from text (String.length text - 2) '\n' + 1));
    R.commit (R.reopen ~dir (ok (R.load ~dir))) r

  (* append [r] after the seal *)
  let append dir r = R.commit (R.reopen ~dir (ok (R.load ~dir))) r
end

module FE = Forge (JE.Kind)
module FM = Forge (E.Kind)
module FR = Forge (Rollback.Kind)

(* A seal whose digest disagrees with the replayed state is refused by
   every sealing kind, and so is an evolve seal whose verdict does. *)
let test_forged_seal () =
  (with_dir @@ fun dir ->
   ignore (ok (JE.run ~dir (procurement ()) ~owner:"A" ~changed:P.accounting_cancel));
   FE.seal dir (JE.Done { consistent = true; digest = zeros });
   match JE.resume ~dir () with
   | Error _ -> ()
   | Ok o -> Alcotest.failf "forged evolve seal accepted: %s" o.JE.digest);
  (with_dir @@ fun dir ->
   let o =
     ok (JE.run ~dir (procurement ()) ~owner:"A" ~changed:P.accounting_cancel)
   in
   let flipped = not o.JE.report.consistent in
   FE.seal dir (JE.Done { consistent = flipped; digest = o.JE.digest });
   match JE.resume ~dir () with
   | Error e ->
       check_bool "verdict mismatch named" true
         (String.ends_with e
            ~suffix:"sealed journal verdict diverges from the replayed state")
   | Ok _ -> Alcotest.fail "evolve seal with a flipped verdict accepted");
  (with_dir @@ fun dir ->
   ignore (ok (E.run_journaled ~dir (tracking_plan ())));
   FM.seal dir (E.Done { digest = zeros });
   match E.resume ~dir () with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "forged migrate seal accepted");
  with_dir @@ fun dir ->
  sealed_rollback dir;
  FR.seal dir (Rollback.Sealed { digest = zeros });
  match Rollback.resume ~dir ~restore:(fun ~party:_ ~pre:_ -> ()) () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "forged rollback seal accepted"

let evolve_cancel dir =
  JE.run ~dir (procurement ()) ~owner:"A" ~changed:P.accounting_cancel

(* registers tenant [basename dir] in a store rooted at [dirname dir] *)
let register dir =
  let store = C.Serve.Tenant.create ~journal_root:(Filename.dirname dir) () in
  C.Serve.Tenant.register store (Filename.basename dir)
    ~processes:(List.map snd P.parties)

(* A directory that already holds a plan refuses a second run of every
   kind, whatever kind the first one was; [chorev resume] reads the
   kind from the plan. *)
let test_second_run_refused () =
  let attempts dir =
    [
      ("evolve", Result.is_error (evolve_cancel dir));
      ("migrate", Result.is_error (E.run_journaled ~dir (tracking_plan ())));
      ("rollback", Result.is_error (Rollback.start ~dir rollback_plan));
      ("tenant", Result.is_error (register dir));
    ]
  in
  List.iter
    (fun (first, make) ->
      with_dir @@ fun root ->
      let dir = Filename.concat root "run" in
      make dir;
      check_string (first ^ ": kind recorded") first (ok (Run.kind ~dir));
      List.iter
        (fun (kind, refused) ->
          check_bool (Printf.sprintf "%s over %s refused" kind first) true refused)
        (attempts dir))
    [
      ("evolve", fun dir -> ignore (evolve_cancel dir));
      ("migrate", fun dir -> ignore (E.run_journaled ~dir (tracking_plan ())));
      ("rollback", sealed_rollback);
      ("tenant", fun dir -> ignore (register dir));
    ]

let test_records_after_seal () =
  (with_dir @@ fun dir ->
   ignore (ok (JE.run ~dir (procurement ()) ~owner:"A" ~changed:P.accounting_cancel));
   FE.append dir (List.hd sample_records);
   check_bool "evolve" true (Result.is_error (ER.load ~dir)));
  with_dir @@ fun dir ->
  sealed_rollback dir;
  FR.append dir (Rollback.Restored "C");
  check_bool "rollback" true (Result.is_error (Rollback.load ~dir))

let () =
  Alcotest.run "journal"
    [
      ( "format",
        [
          Alcotest.test_case "record json round-trip" `Quick
            test_record_roundtrip;
          Alcotest.test_case "file round-trip" `Quick
            test_journal_file_roundtrip;
          Alcotest.test_case "torn tail dropped" `Quick test_torn_tail_dropped;
          Alcotest.test_case "corrupt middle rejected" `Quick
            test_corrupt_middle_is_error;
          Alcotest.test_case "torn at every byte offset" `Quick
            test_torn_at_every_offset;
          Alcotest.test_case "snapshot round-trip" `Quick
            test_snapshot_roundtrip;
          Alcotest.test_case "model digest pinned" `Quick
            test_model_digest_pinned;
          Alcotest.test_case "damaged snapshot is an error" `Quick
            test_damaged_snapshot_is_error;
        ] );
      ( "crash-safety",
        [
          Alcotest.test_case "procurement kill@k" `Quick
            test_crash_resume_procurement;
          Alcotest.test_case "hub kill@k" `Quick test_crash_resume_hub;
          Alcotest.test_case "25 random workloads" `Slow
            test_crash_resume_random_25;
          Alcotest.test_case "resume over torn tail" `Quick
            test_resume_with_torn_tail;
          Alcotest.test_case "refuse double run" `Quick
            test_run_refuses_existing_journal;
        ] );
      ( "drift",
        [
          Alcotest.test_case "killed before the first record" `Quick
            test_killed_before_first_record;
          Alcotest.test_case "forged seal refused" `Quick test_forged_seal;
          Alcotest.test_case "second run refused" `Quick test_second_run_refused;
          Alcotest.test_case "records after the seal" `Quick
            test_records_after_seal;
        ] );
    ]
