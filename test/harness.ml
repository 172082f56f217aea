(* Shared by the durable-run suites (journal, migrate, repair, serve):
   scratch directories and the kill-and-resume harness that crashes a
   run after each of its records through the one
   [Chorev_wal.Run.Simulated_crash] hook. The pool-size suites (guard,
   cache, perf_equiv, repair) share [with_jobs]. *)

let counter = ref 0

let fresh_dir () =
  incr counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "chorev-test-%d-%d" (Unix.getpid ()) !counter)

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

let journal dir = Filename.concat dir "journal.jsonl"
let read path = In_channel.with_open_bin path In_channel.input_all
let write path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* Committed records of a run directory (lines of its journal). *)
let records dir =
  if Sys.file_exists (journal dir) then
    List.length (List.filter (( <> ) "") (String.split_on_char '\n' (read (journal dir))))
  else 0

(* [every_crash_point ~name ~records ~crashed ~resume expected]: for
   every k in 0..records, [crashed ~crash_after:k dir] must die with
   [Simulated_crash k] in a fresh directory, and [resume k dir] must
   then render [expected] byte for byte. *)
let every_crash_point ~name ~records ~crashed ~resume expected =
  for k = 0 to records do
    with_dir @@ fun dir ->
    (match crashed ~crash_after:k dir with
    | exception Chorev.Wal.Run.Simulated_crash k' ->
        Alcotest.(check int) (Printf.sprintf "%s: crashed after record %d" name k) k k'
    | () -> Alcotest.failf "%s: no crash after record %d" name k);
    Alcotest.(check string)
      (Printf.sprintf "%s: kill@%d + resume byte-identical" name k)
      expected (resume k dir)
  done

(* Run [f] with the process-wide default pool size set to [n] (what
   [--jobs n] does), restoring the previous size afterwards. *)
let with_jobs n f =
  let module Pool = Chorev.Parallel.Pool in
  let previous = Pool.default_size () in
  Pool.set_default_size n;
  Fun.protect ~finally:(fun () -> Pool.set_default_size previous) f
