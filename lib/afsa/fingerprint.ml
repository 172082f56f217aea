(** Canonical structural fingerprints of aFSAs.

    The fingerprint is an MD5 digest of an unambiguous serialization of
    exactly the components {!Afsa.structurally_equal} compares: states,
    alphabet, start, finals, transitions and annotations. Two automata
    have equal fingerprints iff they serialize identically, i.e. (up to
    MD5 collisions) iff they are structurally equal — equal {e as
    written}, not up to language equivalence. Callers that want a
    language-canonical key therefore fingerprint {e minimized} automata:
    {!Minimize.minimize} numbers states canonically, so equal annotated
    languages collapse to one fingerprint (this is why the cache layer
    computes fingerprints post-minimize).

    The digest is cached in the automaton's [fp] field. Every function
    of {!Afsa} that returns a changed automaton returns one without it;
    {!Afsa.copy} keeps it. The cached value is an immutable string, so
    reading it from several domains is safe; {e computing} it mutates
    the record and must follow the same single-domain discipline as the
    automaton's lazy CSRs (compute in the coordinator before fan-out,
    or on a private {!Afsa.copy}). *)

module F = Chorev_formula.Syntax

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

(* The automaton's arrays are already in canonical order (ids, symbols
   and rows ascending), so the rendering needs no sorting pass. *)
let serialize (a : Afsa.t) =
  let buf = Buffer.create 512 in
  let id i = add_int buf a.Afsa.state_ids.(i) in
  Buffer.add_char buf 'q';
  id a.Afsa.start;
  Buffer.add_char buf 'Q';
  Array.iter (add_int buf) a.Afsa.state_ids;
  Buffer.add_char buf 'A';
  List.iter (fun l -> add_str buf (Label.to_string l)) (Afsa.alphabet a);
  Buffer.add_char buf 'D';
  for s = 0 to a.Afsa.n - 1 do
    for e = a.Afsa.eps_off.(s) to a.Afsa.eps_off.(s + 1) - 1 do
      id s;
      add_sym buf Sym.Eps;
      id a.Afsa.eps_tgt.(e)
    done;
    for e = a.Afsa.row_off.(s) to a.Afsa.row_off.(s + 1) - 1 do
      id s;
      add_sym buf a.Afsa.syms.(a.Afsa.row_sym.(e));
      id a.Afsa.row_tgt.(e)
    done
  done;
  Buffer.add_char buf 'F';
  Bitset.iter id a.Afsa.finals;
  Buffer.add_char buf 'N';
  Bitset.iter
    (fun i ->
      id i;
      add_formula buf a.Afsa.ann.(i))
    a.Afsa.ann_nontrivial;
  Buffer.contents buf

let compute a = Digest.string (serialize a)
let digest a = Afsa.memo_fp a compute
let peek (a : Afsa.t) = a.Afsa.fp
let hex a = Digest.to_hex (digest a)
let equal a b = a == b || String.equal (digest a) (digest b)

(* Equality decidable from already-cached digests only — never computes.
   [None] = at least one side has no cached digest and the automata are
   not physically equal. *)
let cached_equal a b =
  if a == b then Some true
  else
    match (a.Afsa.fp, b.Afsa.fp) with
    | Some da, Some db -> Some (String.equal da db)
    | _ -> None
