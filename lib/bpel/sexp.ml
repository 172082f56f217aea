(** S-expression persistence for private processes.

    A minimal self-contained s-expression reader, a printer that writes
    a {!Process.t} straight into one buffer, and decoders for
    {!Activity.t}, {!Types.registry} and {!Process.t}.
    [Process.t ⇄ string] round-trips exactly, for every atom. *)

type sexp = Atom of string | List of sexp list

(* The bytes that end a bare atom: whitespace, both parentheses and the
   double quote. The reader stops a bare atom at one and the printer
   quotes an atom holding one, so every atom reads back as written. *)
let is_delimiter = function
  | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' -> true
  | _ -> false

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
  let rec skip_ws () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
          incr pos;
          skip_ws ()
      | _ -> ()
  in
  let read_quoted () =
    incr pos;
    (* opening quote *)
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then raise (Parse_error "unterminated string");
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          if !pos >= n then raise (Parse_error "dangling escape");
          Buffer.add_char buf (match s.[!pos] with 'n' -> '\n' | c -> c);
          incr pos;
          go ()
      | c ->
          Buffer.add_char buf c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let read_atom () =
    let start = !pos in
    while !pos < n && not (is_delimiter s.[!pos]) do
      incr pos
    done;
    String.sub s start (!pos - start)
  in
  (* [depth] lists are open around the value read next *)
  let rec read depth =
    skip_ws ();
    if !pos >= n then raise (Parse_error "unexpected end of input");
    match s.[!pos] with
    | '(' ->
        if depth >= max_depth then
          raise
            (Parse_error (Printf.sprintf "nesting deeper than %d" max_depth));
        incr pos;
        let items = ref [] in
        let rec loop () =
          skip_ws ();
          if !pos >= n then raise (Parse_error "unterminated list");
          if s.[!pos] = ')' then incr pos
          else begin
            items := read (depth + 1) :: !items;
            loop ()
          end
        in
        loop ();
        List (List.rev !items)
    | ')' -> raise (Parse_error "unexpected ')'")
    | '"' -> Atom (read_quoted ())
    | _ -> Atom (read_atom ())
  in
  let result = read 0 in
  skip_ws ();
  if !pos <> n then raise (Parse_error "trailing input");
  result

(* --------------------------- activity codec ------------------------ *)

open Activity

let comm_of_sexp = function
  | List [ Atom partner; Atom op ] -> { partner; op }
  | _ -> raise (Parse_error "bad comm")

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

let link_of_sexp = function
  | List [ Atom link_name; Atom partner; Atom my_role; Atom partner_role ] ->
      { Types.link_name; partner; my_role; partner_role }
  | _ -> raise (Parse_error "bad partner link")

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

(* ------------------------------ printing --------------------------- *)

(* One walk of the process writes its s-expression into [buf]: a list
   opens with ["("] and its keyword, items are separated by one space,
   and an atom is written bare unless it is empty or holds a
   delimiter. No tree is built. *)

let add_atom buf s =
  if s = "" || String.exists is_delimiter s then begin
    Buffer.add_char buf '"';
    String.iter
      (function
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  end
  else Buffer.add_string buf s

(* [" " ^ atom] *)
let add_item buf s =
  Buffer.add_char buf ' ';
  add_atom buf s

let close buf = Buffer.add_char buf ')'

let add_comm buf (c : comm) =
  Buffer.add_char buf '(';
  add_atom buf c.partner;
  add_item buf c.op;
  close buf

let add_keyed_comm buf keyword c =
  Buffer.add_string buf keyword;
  add_comm buf c;
  close buf

let rec add_activity buf (a : t) =
  match a with
  | Receive c -> add_keyed_comm buf "(receive " c
  | Reply c -> add_keyed_comm buf "(reply " c
  | Invoke c -> add_keyed_comm buf "(invoke " c
  | Assign n ->
      Buffer.add_string buf "(assign ";
      add_atom buf n;
      close buf
  | Empty -> Buffer.add_string buf "empty"
  | Terminate -> Buffer.add_string buf "terminate"
  | Sequence (n, body) -> add_block buf "(sequence " n body
  | Flow (n, body) -> add_block buf "(flow " n body
  | While { name; cond; body } ->
      Buffer.add_string buf "(while ";
      add_atom buf name;
      add_item buf cond;
      add_child buf body;
      close buf
  | Switch { name; branches } ->
      Buffer.add_string buf "(switch ";
      add_atom buf name;
      List.iter
        (fun (b : branch) ->
          Buffer.add_string buf " (";
          add_atom buf b.cond;
          add_child buf b.body;
          close buf)
        branches;
      close buf
  | Pick { name; on_messages } ->
      Buffer.add_string buf "(pick ";
      add_atom buf name;
      List.iter
        (fun (c, body) ->
          Buffer.add_string buf " (";
          add_comm buf c;
          add_child buf body;
          close buf)
        on_messages;
      close buf
  | Scope (n, body) ->
      Buffer.add_string buf "(scope ";
      add_atom buf n;
      add_child buf body;
      close buf

(* [" " ^ activity] *)
and add_child buf a =
  Buffer.add_char buf ' ';
  add_activity buf a

and add_block buf keyword n body =
  Buffer.add_string buf keyword;
  add_atom buf n;
  List.iter (add_child buf) body;
  close buf

let add_process buf (p : Process.t) =
  Buffer.add_string buf "(process ";
  add_atom buf p.name;
  add_item buf p.party;
  Buffer.add_string buf " (links";
  List.iter
    (fun (l : Types.partner_link) ->
      Buffer.add_string buf " (";
      add_atom buf l.link_name;
      add_item buf l.partner;
      add_item buf l.my_role;
      add_item buf l.partner_role;
      close buf)
    p.links;
  Buffer.add_string buf ") (registry";
  List.iter
    (fun (party, (pt : Types.port_type)) ->
      Buffer.add_string buf " (";
      add_atom buf party;
      add_item buf pt.pt_name;
      List.iter
        (fun (o : Types.operation) ->
          Buffer.add_string buf " (";
          add_atom buf o.op_name;
          Buffer.add_string buf
            (match o.mode with Types.Async -> " async)" | Types.Sync -> " sync)"))
        pt.ops;
      close buf)
    p.registry.port_types;
  Buffer.add_string buf ") ";
  add_activity buf p.body;
  close buf

(* ------------------------------ strings ---------------------------- *)

let process_to_string p =
  let buf = Buffer.create 1024 in
  add_process buf p;
  Buffer.contents buf

(* Hex MD5 over [name \000 x \000] for each [(name, x)] pair, in list
   order, [add buf x] writing [x] into the one buffer hashed. *)
let digest_pairs add named =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, x) ->
      Buffer.add_string buf name;
      Buffer.add_char buf '\000';
      add buf x;
      Buffer.add_char buf '\000')
    named;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let processes_digest named = digest_pairs Buffer.add_string named
let parties_digest named = digest_pairs add_process named

let process_of_string s : (Process.t, string) result =
  try Ok (process_of_sexp (parse_sexp s)) with
  | Parse_error e -> Error e

let activity_of_string s : (t, string) result =
  try Ok (of_sexp (parse_sexp s)) with Parse_error e -> Error e
