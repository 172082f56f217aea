(* The write-ahead journal (lib/journal): record/JSON round-trips, torn
   tails and corruption, and the central crash-safety property —
   kill-at-round-k + resume equals the uninterrupted run, byte for
   byte, for the paper scenarios, a hub, and 25 random workloads. *)

module C = Chorev
module M = C.Choreography.Model
module Ev = C.Choreography.Evolution
module J = C.Journal
module JE = C.Journal.Evolve
module P = C.Scenario.Procurement

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let procurement () = M.of_processes (List.map snd P.parties)

(* fresh scratch directories under the system temp dir *)
let dir_counter = ref 0
let fresh_dir () =
  incr dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "chorev-journal-test-%d-%d" (Unix.getpid ()) !dir_counter)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ------------------------------ records ----------------------------- *)

let sample_records =
  [
    J.Start { owner = "A"; parties = [ "A"; "B" ]; digest = "00ff" };
    J.Round
      {
        index = 0;
        originator = "A";
        changed = "(process \"weird\nstring\" with \\ escapes\t)";
        adapted = [ ("B", "(process b)"); ("L", "(process l)") ];
        summary = "round by A (public changed):\n  B: variant";
      };
    J.Done { consistent = true; digest = "abcd" };
  ]

let test_record_roundtrip () =
  List.iter
    (fun r ->
      let j = J.record_to_json r in
      let s = C.Wal.Json.to_string j in
      match C.Wal.Json.of_string s with
      | Error e -> Alcotest.failf "reparse failed: %s" e
      | Ok j' -> (
          match J.record_of_json j' with
          | Error e -> Alcotest.failf "decode failed: %s" e
          | Ok r' -> check_bool "record round-trips" true (r = r')))
    sample_records

let test_journal_file_roundtrip () =
  with_dir @@ fun dir ->
  let w = J.create ~dir in
  List.iter (J.append w) sample_records;
  J.close w;
  match J.read ~dir with
  | Error e -> Alcotest.fail e
  | Ok { records; torn; _ } ->
      check_bool "not torn" false torn;
      check_bool "all records back" true (records = sample_records)

let test_torn_tail_dropped () =
  with_dir @@ fun dir ->
  let w = J.create ~dir in
  List.iter (J.append w) sample_records;
  J.close w;
  (* simulate a crash mid-append: a partial line with no newline *)
  let oc =
    open_out_gen [ Open_append ] 0o644 (Filename.concat dir "journal.jsonl")
  in
  output_string oc {|{"crc":"dead","body":{"rec":"rou|};
  close_out oc;
  match J.read ~dir with
  | Error e -> Alcotest.fail e
  | Ok { records; torn; _ } ->
      check_bool "torn flagged" true torn;
      check_int "tail dropped" (List.length sample_records)
        (List.length records)

let test_corrupt_middle_is_error () =
  with_dir @@ fun dir ->
  let w = J.create ~dir in
  List.iter (J.append w) sample_records;
  J.close w;
  (* flip one byte inside the first line's body *)
  let path = Filename.concat dir "journal.jsonl" in
  let s = In_channel.with_open_bin path In_channel.input_all in
  let i = 60 in
  let b = Bytes.of_string s in
  Bytes.set b i (if Bytes.get b i = 'A' then 'Z' else 'A');
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc b);
  match J.read ~dir with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corruption before the tail must be an error"

let test_snapshot_roundtrip () =
  with_dir @@ fun dir ->
  let t = procurement () in
  J.write_snapshot ~dir t ~changed:P.accounting_cancel;
  match J.read_snapshot ~dir with
  | Error e -> Alcotest.fail e
  | Ok (t', changed') ->
      check_string "model digest preserved" (J.model_digest t)
        (J.model_digest t');
      check_bool "changed process preserved" true
        (C.Bpel.Sexp.process_to_string P.accounting_cancel
        = C.Bpel.Sexp.process_to_string changed')

(* A crashed run whose snapshot lost a file is damaged: reading the
   snapshot — and so resuming the run — is an [Error], never an
   escaping [Sys_error]. *)
let test_damaged_snapshot_is_error () =
  let crashed dir =
    match
      JE.run ~crash_after:1 ~dir (procurement ()) ~owner:"A"
        ~changed:P.accounting_cancel
    with
    | exception JE.Simulated_crash _ -> ()
    | Ok _ | Error _ -> Alcotest.fail "expected a simulated crash"
  in
  let expect_error what dir =
    (match J.read_snapshot ~dir with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "read_snapshot without %s must fail" what);
    match JE.resume ~dir () with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "resume without %s must fail" what
  in
  (with_dir @@ fun dir ->
   crashed dir;
   Sys.remove (Filename.concat dir "changed.sexp");
   expect_error "changed.sexp" dir);
  with_dir @@ fun dir ->
  crashed dir;
  (* a snapshot entry that cannot be read as a file *)
  let a = Filename.concat (Filename.concat dir "snapshot") "A.sexp" in
  Sys.remove a;
  Sys.mkdir a 0o755;
  expect_error "a readable snapshot/A.sexp" dir

(* ------------------------- crash-safety oracle ---------------------- *)

let outcome_text o = Fmt.str "%a" JE.pp_outcome o

(* The uninterrupted journaled run must agree with the plain
   [Evolution.run] oracle... *)
let assert_matches_evolution name t ~owner ~changed (o : JE.outcome) =
  match Ev.run t ~owner ~changed with
  | Error (`Unknown_party p) -> Alcotest.failf "unknown party %s" p
  | Ok rep ->
      check_bool (name ^ ": consistent matches oracle") rep.Ev.consistent
        o.JE.consistent;
      check_string (name ^ ": digest matches oracle")
        (J.model_digest rep.Ev.choreography)
        o.JE.digest;
      Alcotest.(check (list string))
        (name ^ ": round logs match oracle")
        (List.map (Fmt.str "%a" Ev.pp_round) rep.Ev.rounds)
        o.JE.round_logs

(* ...and a run killed right after committing round [k] must, after
   resume, produce the identical outcome. *)
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
  for k = 1 to n_rounds do
    with_dir @@ fun dir ->
    (match JE.run ~crash_after:k ~dir t ~owner ~changed with
    | exception JE.Simulated_crash k' ->
        check_int (name ^ ": crashed where asked") k k'
    | Ok _ ->
        (* crash point at/after the last round: the run completed *)
        Alcotest.failf "%s: expected simulated crash at round %d" name k
    | Error e -> Alcotest.failf "%s: %s" name e);
    match JE.resume ~dir () with
    | Error e -> Alcotest.failf "%s: resume after round %d: %s" name k e
    | Ok resumed ->
        check_int
          (Printf.sprintf "%s: replayed %d rounds" name k)
          k resumed.JE.replayed;
        check_string
          (Printf.sprintf "%s: kill@%d+resume byte-identical" name k)
          (outcome_text full) (outcome_text resumed);
        (* resuming a sealed journal just reports it, identically *)
        (match JE.resume ~dir () with
        | Error e -> Alcotest.failf "%s: double resume: %s" name e
        | Ok again ->
            check_string
              (Printf.sprintf "%s: idempotent resume" name)
              (outcome_text full) (outcome_text again))
  done

let test_crash_resume_procurement () =
  let t = procurement () in
  assert_crash_resume_identical "cancel" t ~owner:"A"
    ~changed:P.accounting_cancel;
  assert_crash_resume_identical "once" t ~owner:"A" ~changed:P.accounting_once

let test_crash_resume_hub () =
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
    | exception JE.Simulated_crash _ -> (
        match JE.resume ~dir () with
        | Error e -> Alcotest.failf "seed %d resume: %s" seed e
        | Ok resumed ->
            check_string
              (Printf.sprintf "seed %d byte-identical" seed)
              (outcome_text full) (outcome_text resumed))
    | Ok _ | Error _ -> Alcotest.failf "seed %d: expected crash" seed
  done

(* torn tail after a real crash: resume still reaches the full outcome *)
let test_resume_with_torn_tail () =
  let t = procurement () in
  with_dir @@ fun full_dir ->
  let full =
    match JE.run ~dir:full_dir t ~owner:"A" ~changed:P.accounting_cancel with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  with_dir @@ fun dir ->
  (match
     JE.run ~crash_after:1 ~dir t ~owner:"A" ~changed:P.accounting_cancel
   with
  | exception JE.Simulated_crash _ -> ()
  | _ -> Alcotest.fail "expected crash");
  let oc =
    open_out_gen [ Open_append ] 0o644 (Filename.concat dir "journal.jsonl")
  in
  output_string oc {|{"crc":"0123","body":{"rec":"round","index":1,"orig|};
  close_out oc;
  match JE.resume ~dir () with
  | Error e -> Alcotest.fail e
  | Ok resumed ->
      check_string "torn tail ignored" (outcome_text full)
        (outcome_text resumed)

let test_run_refuses_existing_journal () =
  let t = procurement () in
  with_dir @@ fun dir ->
  (match JE.run ~dir t ~owner:"A" ~changed:P.accounting_cancel with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  match JE.run ~dir t ~owner:"A" ~changed:P.accounting_cancel with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "second run into the same dir must be refused"

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
          Alcotest.test_case "snapshot round-trip" `Quick
            test_snapshot_roundtrip;
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
    ]
