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

(* The one writer: a per-domain byte buffer. A serialization first
   renders each state id and each symbol of the automaton once at the
   front of the buffer, then writes the serialization after them,
   copying a rendering wherever its id or symbol occurs. Not a
   [Buffer]: copying a rendering reads the buffer's own bytes, and the
   digest is taken where the bytes lie rather than on a copy (DESIGN.md
   §10.1 has the measurement). *)
type writer = { mutable buf : Bytes.t; mutable len : int }

let writer =
  Domain.DLS.new_key (fun () -> { buf = Bytes.create 4096; len = 0 })

(* A buffer grown past this is dropped after use. *)
let keep_max = 1 lsl 20

let reserve w k =
  if w.len + k > Bytes.length w.buf then begin
    let b = Bytes.create (max (2 * Bytes.length w.buf) (w.len + k)) in
    Bytes.blit w.buf 0 b 0 w.len;
    w.buf <- b
  end

let add_char w c =
  reserve w 1;
  Bytes.unsafe_set w.buf w.len c;
  w.len <- w.len + 1

let add_string w s =
  let k = String.length s in
  reserve w k;
  Bytes.blit_string s 0 w.buf w.len k;
  w.len <- w.len + k

(* [i] in decimal, as [string_of_int] writes it. The digits are taken
   from the non-positive [-|i|], which cannot overflow. *)
let add_decimal w i =
  let v = if i < 0 then i else -i in
  let digits = ref 1 and x = ref (v / 10) in
  while !x <> 0 do
    incr digits;
    x := !x / 10
  done;
  let k = if i < 0 then !digits + 1 else !digits in
  reserve w k;
  if i < 0 then Bytes.unsafe_set w.buf w.len '-';
  let x = ref v in
  for p = w.len + k - 1 downto w.len + k - !digits do
    Bytes.unsafe_set w.buf p (Char.unsafe_chr (48 - (!x mod 10)));
    x := !x / 10
  done;
  w.len <- w.len + k

(* [w.buf.(off .. off+k-1)], a rendering earlier in the buffer, copied
   to its end. *)
let add_copy w off k =
  reserve w k;
  Bytes.blit w.buf off w.buf w.len k;
  w.len <- w.len + k

(* Unambiguous: every variable-length piece is length-prefixed, every
   construct starts with a distinct tag character. *)
let add_str w s =
  add_decimal w (String.length s);
  add_char w ':';
  add_string w s

let rec add_formula w = function
  | F.True -> add_char w 'T'
  | F.False -> add_char w 'F'
  | F.Var v ->
      add_char w 'v';
      add_str w v
  | F.Not f ->
      add_char w '!';
      add_formula w f
  | F.And (l, r) ->
      add_char w '&';
      add_formula w l;
      add_formula w r
  | F.Or (l, r) ->
      add_char w '|';
      add_formula w l;
      add_formula w r

(* A symbol: [e] for ε, else [l] and its label's length-prefixed
   rendering. *)
let add_sym w = function
  | Sym.Eps -> add_char w 'e'
  | Sym.L l ->
      add_char w 'l';
      add_str w (Label.to_string l)

(* Writes [a]'s serialization into this domain's buffer and passes the
   buffer, the serialization's offset and its length to [k]. The
   automaton's arrays are already in canonical order (ids, symbols and
   rows ascending), so the rendering needs no sorting pass. *)
let with_serialization (a : Afsa.t) k =
  let w = Domain.DLS.get writer in
  w.len <- 0;
  let n = a.Afsa.n and syms = a.Afsa.syms in
  (* state id [i] is [id_at.(i) .. id_at.(i+1)-1], symbol [c] is
     [sym_at.(c) .. sym_at.(c+1)-1] *)
  let id_at = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    add_decimal w a.Afsa.state_ids.(i);
    add_char w ';';
    id_at.(i + 1) <- w.len
  done;
  let sym_at = Array.make (Array.length syms + 1) w.len in
  Array.iteri
    (fun c sym ->
      add_sym w sym;
      sym_at.(c + 1) <- w.len)
    syms;
  let base = w.len in
  let id i = add_copy w id_at.(i) (id_at.(i + 1) - id_at.(i)) in
  let sym c = add_copy w sym_at.(c) (sym_at.(c + 1) - sym_at.(c)) in
  add_char w 'q';
  id a.Afsa.start;
  add_char w 'Q';
  add_copy w 0 id_at.(n);
  add_char w 'A';
  Array.iteri
    (fun c s ->
      (* a label's rendering without its tag *)
      if not (Sym.is_eps s) then
        add_copy w (sym_at.(c) + 1) (sym_at.(c + 1) - sym_at.(c) - 1))
    syms;
  add_char w 'D';
  for s = 0 to n - 1 do
    for e = a.Afsa.eps_off.(s) to a.Afsa.eps_off.(s + 1) - 1 do
      id s;
      add_char w 'e';
      id a.Afsa.eps_tgt.(e)
    done;
    for e = a.Afsa.row_off.(s) to a.Afsa.row_off.(s + 1) - 1 do
      id s;
      sym a.Afsa.row_sym.(e);
      id a.Afsa.row_tgt.(e)
    done
  done;
  add_char w 'F';
  Bitset.iter id a.Afsa.finals;
  add_char w 'N';
  Bitset.iter
    (fun i ->
      id i;
      add_formula w a.Afsa.ann.(i))
    a.Afsa.ann_nontrivial;
  let r = k w.buf base (w.len - base) in
  if Bytes.length w.buf > keep_max then w.buf <- Bytes.create 4096;
  r

let serialize a = with_serialization a Bytes.sub_string
let compute a = with_serialization a Digest.subbytes
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
