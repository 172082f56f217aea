(** Parser for the textual formula syntax produced by {!Pp}:

      formula ::= disj
      disj    ::= conj ("OR" conj)*
      conj    ::= atom ("AND" atom)*
      atom    ::= "NOT" atom | "true" | "false" | var | "(" formula ")"

    Variables are message identifiers: any run of characters that is
    not whitespace, a parenthesis, or one of the keywords (labels like
    ["B#A#orderOp"] parse as single variables). Round-trips with
    {!Pp.to_string}. *)

open Syntax

type token = LPAREN | RPAREN | AND | OR | NOT | TRUE | FALSE | VAR of string

(* The bytes that end a word: whitespace and both parentheses. *)
let ends_word = function
  | ' ' | '\t' | '\n' | '\r' | '(' | ')' -> true
  | _ -> false

(* Tokens are read on demand, so a parse that fails early never scans
   the rest of the input. *)
let tokenize s : token Seq.t =
  let n = String.length s in
  let rec go i () =
    if i >= n then Seq.Nil
    else
      match s.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1) ()
      | '(' -> Seq.Cons (LPAREN, go (i + 1))
      | ')' -> Seq.Cons (RPAREN, go (i + 1))
      | _ ->
          let j = ref i in
          while !j < n && not (ends_word s.[!j]) do
            incr j
          done;
          let word = String.sub s i (!j - i) in
          let tok =
            match word with
            | "AND" -> AND
            | "OR" -> OR
            | "NOT" -> NOT
            | "true" -> TRUE
            | "false" -> FALSE
            | v -> VAR v
          in
          Seq.Cons (tok, go !j)
  in
  Seq.memoize (go 0)

exception Parse_error of string

(* Parentheses and [NOT]s nest at most this deep. Annotations nest a
   handful of levels; the bound keeps a hostile run of ["("] from
   recursing as deep as it is long. *)
let max_depth = 512

let parse_tokens tokens =
  let toks = ref tokens in
  let peek () = match !toks () with Seq.Nil -> None | Cons (t, _) -> Some t in
  let advance () =
    match !toks () with Seq.Nil -> () | Cons (_, tl) -> toks := tl
  in
  let expect t msg =
    match peek () with
    | Some t' when t' = t -> advance ()
    | _ -> raise (Parse_error msg)
  in
  (* [depth] parentheses and [NOT]s are open around what is read next *)
  let nest depth =
    if depth >= max_depth then
      raise (Parse_error (Printf.sprintf "nesting deeper than %d" max_depth));
    advance ()
  in
  let rec disj depth =
    let left = conj depth in
    match peek () with
    | Some OR ->
        advance ();
        Or (left, disj depth)
    | _ -> left
  and conj depth =
    let left = atom depth in
    match peek () with
    | Some AND ->
        advance ();
        And (left, conj depth)
    | _ -> left
  and atom depth =
    match peek () with
    | Some NOT ->
        nest depth;
        Not (atom (depth + 1))
    | Some TRUE ->
        advance ();
        True
    | Some FALSE ->
        advance ();
        False
    | Some (VAR v) ->
        advance ();
        Var v
    | Some LPAREN ->
        nest depth;
        let f = disj (depth + 1) in
        expect RPAREN "expected ')'";
        f
    | Some RPAREN -> raise (Parse_error "unexpected ')'")
    | Some AND | Some OR -> raise (Parse_error "unexpected operator")
    | None -> raise (Parse_error "unexpected end of input")
  in
  let f = disj 0 in
  match peek () with
  | None -> f
  | Some _ -> raise (Parse_error "trailing input")

let of_string s : (t, string) result =
  try Ok (parse_tokens (tokenize s)) with Parse_error e -> Error e

let of_string_exn s =
  match of_string s with
  | Ok f -> f
  | Error e -> invalid_arg ("Formula.Parse.of_string_exn: " ^ e)
