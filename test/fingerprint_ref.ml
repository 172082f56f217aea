(* The fingerprint serializer that Chorev_afsa.Fingerprint replaced,
   kept as the oracle of the writer differential in test_perf_equiv: a
   [Buffer] that renders every state id and symbol again at each
   occurrence. It reads [parts], the automaton's arrays as a plain
   record, so that test/afsa_make_ref.ml can hand it the arrays the
   old constructor builds; [parts] copies them out of an automaton and
   [equal_parts] is the old [Afsa.structurally_equal] over them. No
   production code calls it. *)

module F = Chorev_formula.Syntax
module Afsa = Chorev_afsa.Afsa
module Sym = Chorev_afsa.Sym
module Label = Chorev_afsa.Label
module Bitset = Chorev_afsa.Bitset

type parts = {
  n : int;
  state_ids : int array;
  start : int;
  syms : Sym.t array;
  row_off : int array;
  row_sym : int array;
  row_tgt : int array;
  eps_off : int array;
  eps_tgt : int array;
  finals : Bitset.t;
  ann : F.t array;
  ann_nontrivial : Bitset.t;
}

let parts (a : Afsa.t) =
  {
    n = a.Afsa.n;
    state_ids = a.Afsa.state_ids;
    start = a.Afsa.start;
    syms = a.Afsa.syms;
    row_off = a.Afsa.row_off;
    row_sym = a.Afsa.row_sym;
    row_tgt = a.Afsa.row_tgt;
    eps_off = a.Afsa.eps_off;
    eps_tgt = a.Afsa.eps_tgt;
    finals = a.Afsa.finals;
    ann = a.Afsa.ann;
    ann_nontrivial = a.Afsa.ann_nontrivial;
  }

let equal_parts a b =
  a.state_ids = b.state_ids
  && a.start = b.start
  && Array.length a.syms = Array.length b.syms
  && Array.for_all2 Sym.equal a.syms b.syms
  && Bitset.equal a.finals b.finals
  && a.row_off = b.row_off && a.row_sym = b.row_sym && a.row_tgt = b.row_tgt
  && a.eps_off = b.eps_off && a.eps_tgt = b.eps_tgt
  && Array.for_all2 F.equal a.ann b.ann

(* Unambiguous: every variable-length piece is length-prefixed, every
   construct starts with a distinct tag character. *)
let add_str buf s =
  Buffer.add_string buf (string_of_int (String.length s));
  Buffer.add_char buf ':';
  Buffer.add_string buf s

let add_int buf i =
  Buffer.add_string buf (string_of_int i);
  Buffer.add_char buf ';'

let rec add_formula buf = function
  | F.True -> Buffer.add_char buf 'T'
  | F.False -> Buffer.add_char buf 'F'
  | F.Var v ->
      Buffer.add_char buf 'v';
      add_str buf v
  | F.Not f ->
      Buffer.add_char buf '!';
      add_formula buf f
  | F.And (l, r) ->
      Buffer.add_char buf '&';
      add_formula buf l;
      add_formula buf r
  | F.Or (l, r) ->
      Buffer.add_char buf '|';
      add_formula buf l;
      add_formula buf r

let add_sym buf = function
  | Sym.Eps -> Buffer.add_char buf 'e'
  | Sym.L l ->
      Buffer.add_char buf 'l';
      add_str buf (Label.to_string l)

let serialize_parts a =
  let buf = Buffer.create 512 in
  let id i = add_int buf a.state_ids.(i) in
  Buffer.add_char buf 'q';
  id a.start;
  Buffer.add_char buf 'Q';
  Array.iter (add_int buf) a.state_ids;
  Buffer.add_char buf 'A';
  Array.iter
    (function Sym.L l -> add_str buf (Label.to_string l) | Sym.Eps -> ())
    a.syms;
  Buffer.add_char buf 'D';
  for s = 0 to a.n - 1 do
    for e = a.eps_off.(s) to a.eps_off.(s + 1) - 1 do
      id s;
      add_sym buf Sym.Eps;
      id a.eps_tgt.(e)
    done;
    for e = a.row_off.(s) to a.row_off.(s + 1) - 1 do
      id s;
      add_sym buf a.syms.(a.row_sym.(e));
      id a.row_tgt.(e)
    done
  done;
  Buffer.add_char buf 'F';
  Bitset.iter id a.finals;
  Buffer.add_char buf 'N';
  Bitset.iter
    (fun i ->
      id i;
      add_formula buf a.ann.(i))
    a.ann_nontrivial;
  Buffer.contents buf

let serialize a = serialize_parts (parts a)
