(* The process printer that Chorev_bpel.Sexp's streaming printer
   replaced, kept verbatim as the oracle of the printer differential
   tests in test_serialize and test_mapping: it builds the s-expression
   tree of a process, then prints the tree. It quotes an atom that is
   empty or holds a space, tab, newline, parenthesis or double quote,
   and leaves one holding a carriage return bare, where the reader ends
   a bare atom; on every other process both printers write the same
   bytes. No production code calls it. *)

open Chorev_bpel

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

(* --------------------------- activity codec ------------------------ *)

open Activity

let comm_to_sexp (c : comm) = List [ Atom c.partner; Atom c.op ]

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

let link_to_sexp (l : Types.partner_link) =
  List
    [ Atom l.link_name; Atom l.partner; Atom l.my_role; Atom l.partner_role ]

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

let process_to_string p = sexp_to_string (process_to_sexp p)

(* ------------------------------ checks ----------------------------- *)

(* The differential check: [Chorev_bpel.Sexp.process_to_string] and
   this printer write the same bytes for [p]. *)
let agrees p = String.equal (Sexp.process_to_string p) (process_to_string p)

(* [p] with every atom replaced by [f atom]: its name and party, every
   field of its links, the parties, port types and operation names of
   its registry, and in the body every partner, operation, assignment,
   block name and condition. The shape of [p] is kept. *)
let map_atoms f (p : Process.t) : Process.t =
  let comm c = { partner = f c.partner; op = f c.op } in
  let rec act = function
    | Receive c -> Receive (comm c)
    | Reply c -> Reply (comm c)
    | Invoke c -> Invoke (comm c)
    | Assign n -> Assign (f n)
    | (Empty | Terminate) as a -> a
    | Sequence (n, body) -> Sequence (f n, List.map act body)
    | Flow (n, body) -> Flow (f n, List.map act body)
    | While { name; cond; body } ->
        While { name = f name; cond = f cond; body = act body }
    | Switch { name; branches } ->
        Switch
          {
            name = f name;
            branches =
              List.map
                (fun (b : branch) -> { cond = f b.cond; body = act b.body })
                branches;
          }
    | Pick { name; on_messages } ->
        Pick
          {
            name = f name;
            on_messages = List.map (fun (c, b) -> (comm c, act b)) on_messages;
          }
    | Scope (n, body) -> Scope (f n, act body)
  in
  let link (l : Types.partner_link) =
    {
      Types.link_name = f l.link_name;
      partner = f l.partner;
      my_role = f l.my_role;
      partner_role = f l.partner_role;
    }
  in
  let port (party, (pt : Types.port_type)) =
    ( f party,
      {
        Types.pt_name = f pt.pt_name;
        ops =
          List.map
            (fun (o : Types.operation) -> { o with op_name = f o.op_name })
            pt.ops;
      } )
  in
  Process.make ~name:(f p.name) ~party:(f p.party)
    ~links:(List.map link p.links)
    ~registry:(Types.registry (List.map port p.registry.port_types))
    (act p.body)

(* A random atom: the empty string one time in eight, else 1 to 8
   bytes, each drawn from [bytes]. *)
let random_atom rng bytes () =
  if Random.State.int rng 8 = 0 then ""
  else
    String.init
      (1 + Random.State.int rng 8)
      (fun _ -> bytes.[Random.State.int rng (String.length bytes)])

(* All 256 byte values, and all but the carriage return. *)
let all_bytes = String.init 256 Char.chr
let all_but_cr = String.concat "" (String.split_on_char '\r' all_bytes)
