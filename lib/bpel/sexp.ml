(** S-expression persistence for private processes.

    A minimal self-contained s-expression reader/printer (atoms are
    quoted when they contain whitespace or parentheses) plus encoders
    and decoders for {!Activity.t}, {!Types.registry} and
    {!Process.t}. [Process.t ⇄ string] round-trips exactly. *)

type sexp = Atom of string | List of sexp list

(* ------------------------------ printing --------------------------- *)

let needs_quotes s =
  s = ""
  || String.exists (fun c -> List.mem c [ ' '; '\t'; '\n'; '('; ')'; '"' ]) s

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let rec print_sexp buf = function
  | Atom s -> Buffer.add_string buf (if needs_quotes s then quote s else s)
  | List items ->
      Buffer.add_char buf '(';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ' ';
          print_sexp buf item)
        items;
      Buffer.add_char buf ')'

let sexp_to_string s =
  let buf = Buffer.create 256 in
  print_sexp buf s;
  Buffer.contents buf

(* ------------------------------ parsing ---------------------------- *)

exception Parse_error of string

(* Lists nest at most this deep. The processes of a seed-42 serve
   script, resynthesized ones included, nest at most 32 lists, but a
   resynthesized chain of stop-or-continue choices nests a few lists
   per choice, hence the headroom. The bound keeps a hostile string of
   parentheses (an evolve request's [changed] field, a journal line)
   from recursing as deep as it is long. *)
let max_depth = 10_000

let parse_sexp (s : string) : sexp =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let read_quoted () =
    advance ();
    (* opening quote *)
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> raise (Parse_error "unterminated string")
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some 'n' -> Buffer.add_char buf '\n'
          | Some c -> Buffer.add_char buf c
          | None -> raise (Parse_error "dangling escape"));
          advance ();
          go ()
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let read_atom () =
    let start = !pos in
    let rec go () =
      match peek () with
      | Some c when not (List.mem c [ ' '; '\t'; '\n'; '\r'; '('; ')'; '"' ])
        ->
          advance ();
          go ()
      | _ -> ()
    in
    go ();
    String.sub s start (!pos - start)
  in
  (* [depth] lists are open around the value read next *)
  let rec read depth =
    skip_ws ();
    match peek () with
    | None -> raise (Parse_error "unexpected end of input")
    | Some '(' ->
        if depth >= max_depth then
          raise
            (Parse_error (Printf.sprintf "nesting deeper than %d" max_depth));
        advance ();
        let items = ref [] in
        let rec loop () =
          skip_ws ();
          match peek () with
          | Some ')' -> advance ()
          | None -> raise (Parse_error "unterminated list")
          | _ ->
              items := read (depth + 1) :: !items;
              loop ()
        in
        loop ();
        List (List.rev !items)
    | Some ')' -> raise (Parse_error "unexpected ')'")
    | Some '"' -> Atom (read_quoted ())
    | Some _ -> Atom (read_atom ())
  in
  let result = read 0 in
  skip_ws ();
  if !pos <> n then raise (Parse_error "trailing input");
  result

(* --------------------------- activity codec ------------------------ *)

open Activity

let comm_to_sexp (c : comm) = List [ Atom c.partner; Atom c.op ]

let comm_of_sexp = function
  | List [ Atom partner; Atom op ] -> { partner; op }
  | _ -> raise (Parse_error "bad comm")

let rec to_sexp (a : t) : sexp =
  match a with
  | Receive c -> List [ Atom "receive"; comm_to_sexp c ]
  | Reply c -> List [ Atom "reply"; comm_to_sexp c ]
  | Invoke c -> List [ Atom "invoke"; comm_to_sexp c ]
  | Assign n -> List [ Atom "assign"; Atom n ]
  | Empty -> Atom "empty"
  | Terminate -> Atom "terminate"
  | Sequence (n, body) ->
      List (Atom "sequence" :: Atom n :: List.map to_sexp body)
  | Flow (n, body) -> List (Atom "flow" :: Atom n :: List.map to_sexp body)
  | While { name; cond; body } ->
      List [ Atom "while"; Atom name; Atom cond; to_sexp body ]
  | Switch { name; branches } ->
      List
        (Atom "switch" :: Atom name
        :: List.map
             (fun (b : branch) -> List [ Atom b.cond; to_sexp b.body ])
             branches)
  | Pick { name; on_messages } ->
      List
        (Atom "pick" :: Atom name
        :: List.map
             (fun (c, body) -> List [ comm_to_sexp c; to_sexp body ])
             on_messages)
  | Scope (n, body) -> List [ Atom "scope"; Atom n; to_sexp body ]

let rec of_sexp (s : sexp) : t =
  match s with
  | Atom "empty" -> Empty
  | Atom "terminate" -> Terminate
  | List [ Atom "receive"; c ] -> Receive (comm_of_sexp c)
  | List [ Atom "reply"; c ] -> Reply (comm_of_sexp c)
  | List [ Atom "invoke"; c ] -> Invoke (comm_of_sexp c)
  | List [ Atom "assign"; Atom n ] -> Assign n
  | List (Atom "sequence" :: Atom n :: body) ->
      Sequence (n, List.map of_sexp body)
  | List (Atom "flow" :: Atom n :: body) -> Flow (n, List.map of_sexp body)
  | List [ Atom "while"; Atom name; Atom cond; body ] ->
      While { name; cond; body = of_sexp body }
  | List (Atom "switch" :: Atom name :: branches) ->
      Switch
        {
          name;
          branches =
            List.map
              (function
                | List [ Atom cond; body ] -> { cond; body = of_sexp body }
                | _ -> raise (Parse_error "bad switch branch"))
              branches;
        }
  | List (Atom "pick" :: Atom name :: arms) ->
      Pick
        {
          name;
          on_messages =
            List.map
              (function
                | List [ c; body ] -> (comm_of_sexp c, of_sexp body)
                | _ -> raise (Parse_error "bad pick arm"))
              arms;
        }
  | List [ Atom "scope"; Atom n; body ] -> Scope (n, of_sexp body)
  | _ -> raise (Parse_error "bad activity")

(* --------------------------- process codec ------------------------- *)

let registry_to_sexp (r : Types.registry) =
  List
    (Atom "registry"
    :: List.map
         (fun (party, (pt : Types.port_type)) ->
           List
             (Atom party :: Atom pt.pt_name
             :: List.map
                  (fun (o : Types.operation) ->
                    List
                      [
                        Atom o.op_name;
                        Atom
                          (match o.mode with
                          | Types.Async -> "async"
                          | Types.Sync -> "sync");
                      ])
                  pt.ops))
         r.Types.port_types)

let registry_of_sexp = function
  | List (Atom "registry" :: entries) ->
      Types.registry
        (List.map
           (function
             | List (Atom party :: Atom pt_name :: ops) ->
                 ( party,
                   {
                     Types.pt_name;
                     ops =
                       List.map
                         (function
                           | List [ Atom op_name; Atom "async" ] ->
                               { Types.op_name; mode = Types.Async }
                           | List [ Atom op_name; Atom "sync" ] ->
                               { Types.op_name; mode = Types.Sync }
                           | _ -> raise (Parse_error "bad operation"))
                         ops;
                   } )
             | _ -> raise (Parse_error "bad registry entry"))
           entries)
  | _ -> raise (Parse_error "bad registry")

let link_to_sexp (l : Types.partner_link) =
  List
    [ Atom l.link_name; Atom l.partner; Atom l.my_role; Atom l.partner_role ]

let link_of_sexp = function
  | List [ Atom link_name; Atom partner; Atom my_role; Atom partner_role ] ->
      { Types.link_name; partner; my_role; partner_role }
  | _ -> raise (Parse_error "bad partner link")

let process_to_sexp (p : Process.t) =
  List
    [
      Atom "process";
      Atom (Process.name p);
      Atom (Process.party p);
      List (Atom "links" :: List.map link_to_sexp (Process.links p));
      registry_to_sexp (Process.registry p);
      to_sexp (Process.body p);
    ]

let process_of_sexp = function
  | List
      [
        Atom "process"; Atom name; Atom party; List (Atom "links" :: links);
        registry; body;
      ] ->
      Process.make ~name ~party
        ~links:(List.map link_of_sexp links)
        ~registry:(registry_of_sexp registry)
        (of_sexp body)
  | _ -> raise (Parse_error "bad process")

(* ------------------------------ strings ---------------------------- *)

let process_to_string p = sexp_to_string (process_to_sexp p)

let processes_digest named =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, sexp) ->
      Buffer.add_string buf name;
      Buffer.add_char buf '\000';
      Buffer.add_string buf sexp;
      Buffer.add_char buf '\000')
    named;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let process_of_string s : (Process.t, string) result =
  try Ok (process_of_sexp (parse_sexp s)) with
  | Parse_error e -> Error e

let activity_of_string s : (t, string) result =
  try Ok (of_sexp (parse_sexp s)) with Parse_error e -> Error e
