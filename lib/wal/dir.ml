(* Shared filesystem plumbing: see dir.mli for the invariants. *)

let sanitize name =
  String.concat ""
    (List.map
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> String.make 1 c
         | c -> Printf.sprintf "%%%02x" (Char.code c))
       (List.init (String.length name) (String.get name)))

let rec mkdir_p path =
  if not (Sys.file_exists path) then (
    let parent = Filename.dirname path in
    if parent <> path && not (Sys.file_exists parent) then mkdir_p parent;
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())

let fsync_dir path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd
  | exception Unix.Unix_error _ -> ()

let write_atomic path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc contents;
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc);
  close_out oc;
  Unix.rename tmp path;
  fsync_dir (Filename.dirname path)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let validate_root path =
  if Sys.file_exists path then
    if Sys.is_directory path then Ok ()
    else Error (Printf.sprintf "%s exists and is not a directory" path)
  else
    match mkdir_p path with
    | () when Sys.is_directory path -> Ok ()
    | () -> Error (Printf.sprintf "cannot create directory %s" path)
    | exception Unix.Unix_error (e, _, _) ->
        Error (Printf.sprintf "cannot create %s: %s" path (Unix.error_message e))

let list_subdirs dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter (fun n -> Sys.is_directory (Filename.concat dir n))
      |> List.sort String.compare
