(** Line-based textual persistence for aFSAs.

    {v
    afsa v1
    alphabet A#B#x B#A#y
    start 0
    finals 2 3
    edge 0 A#B#x 1
    edge 1 eps 2
    ann 1 A#B#x AND B#A#y
    v}

    [to_string] / [of_string] round-trip structurally. The formula on
    an [ann] line extends to the end of the line and is parsed with
    {!Chorev_formula.Parse}. *)

module F = Chorev_formula.Syntax

let to_string (a : Afsa.t) =
  let buf = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "afsa v1\n";
  pf "alphabet%s\n"
    (String.concat ""
       (List.map (fun l -> " " ^ Label.to_string l) (Afsa.alphabet a)));
  pf "start %d\n" (Afsa.start a);
  pf "finals%s\n"
    (String.concat "" (List.map (fun q -> Printf.sprintf " %d" q) (Afsa.finals a)));
  List.iter
    (fun (s, sym, t) ->
      pf "edge %d %s %d\n" s
        (match sym with Sym.Eps -> "eps" | Sym.L l -> Label.to_string l)
        t)
    (List.sort compare (Afsa.edges a));
  List.iter
    (fun (q, f) -> pf "ann %d %s\n" q (Chorev_formula.Pp.to_string f))
    (Afsa.annotations a);
  Buffer.contents buf

let of_string s : (Afsa.t, string) result =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | [] -> Error "empty input"
  | header :: rest ->
      if not (String.equal header "afsa v1") then
        err "bad header %S" header
      else begin
        let alphabet = ref [] in
        let start = ref None in
        let finals = ref [] in
        let edges = ref [] in
        let anns = ref [] in
        let parse_line line =
          match String.split_on_char ' ' line with
          | "alphabet" :: labels ->
              let rec parse acc = function
                | [] ->
                    alphabet := List.rev acc;
                    Ok ()
                | l :: rest -> (
                    match Label.of_string l with
                    | Ok lab -> parse (lab :: acc) rest
                    | Error e -> Error e)
              in
              parse [] labels
          | [ "start"; q ] -> (
              match int_of_string_opt q with
              | Some q ->
                  start := Some q;
                  Ok ()
              | None -> Error ("bad start state: " ^ q))
          | "finals" :: qs ->
              let parsed = List.filter_map int_of_string_opt qs in
              if List.length parsed <> List.length qs then
                Error ("bad finals line: " ^ line)
              else begin
                finals := parsed;
                Ok ()
              end
          | [ "edge"; s_; l; t ] -> (
              match (int_of_string_opt s_, int_of_string_opt t) with
              | Some s_, Some t ->
                  if String.equal l "eps" then begin
                    edges := (s_, Sym.Eps, t) :: !edges;
                    Ok ()
                  end
                  else (
                    match Label.of_string l with
                    | Ok lab ->
                        edges := (s_, Sym.L lab, t) :: !edges;
                        Ok ()
                    | Error e -> Error e)
              | _ -> Error ("bad edge line: " ^ line))
          | "ann" :: q :: formula_words -> (
              match int_of_string_opt q with
              | None -> Error ("bad ann state: " ^ line)
              | Some q -> (
                  match
                    Chorev_formula.Parse.of_string
                      (String.concat " " formula_words)
                  with
                  | Ok f ->
                      anns := (q, f) :: !anns;
                      Ok ()
                  | Error e -> Error ("bad ann formula: " ^ e)))
          | _ -> Error ("unrecognized line: " ^ line)
        in
        let rec go = function
          | [] -> Ok ()
          | l :: rest -> (
              match parse_line l with Ok () -> go rest | Error e -> Error e)
        in
        match go rest with
        | Error e -> Error e
        | Ok () -> (
            match !start with
            | None -> Error "missing start line"
            | Some start ->
                Ok
                  (Afsa.make ~alphabet:!alphabet ~start ~finals:!finals
                     ~edges:!edges ~ann:!anns ()))
      end

let of_string_exn s =
  match of_string s with
  | Ok a -> a
  | Error e -> invalid_arg ("Afsa.Serialize.of_string_exn: " ^ e)

let to_file ~path a =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string a))

let of_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (In_channel.input_all ic))
