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

    The digest is cached in the automaton's [fp] field. Every structural
    modifier in {!Afsa} resets the field; {!Afsa.copy} keeps it. The
    cached value is an immutable string, so reading it from several
    domains is safe; {e computing} it mutates the record and must follow
    the same single-domain discipline as the lazy pack (compute in the
    coordinator before fan-out, or on a private {!Afsa.copy}). *)

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

(* All iterations below are over ordered maps/sets, so the rendering is
   deterministic with no sorting pass. *)
let serialize (a : Afsa.t) =
  let buf = Buffer.create 512 in
  Buffer.add_char buf 'q';
  add_int buf a.Afsa.start;
  Buffer.add_char buf 'Q';
  Afsa.ISet.iter (fun q -> add_int buf q) a.Afsa.states;
  Buffer.add_char buf 'A';
  Label.Set.iter (fun l -> add_str buf (Label.to_string l)) a.Afsa.alphabet;
  Buffer.add_char buf 'D';
  Afsa.IMap.iter
    (fun s row ->
      Sym.Map.iter
        (fun sym tgts ->
          Afsa.ISet.iter
            (fun t ->
              add_int buf s;
              add_sym buf sym;
              add_int buf t)
            tgts)
        row)
    a.Afsa.delta;
  Buffer.add_char buf 'F';
  Afsa.ISet.iter (fun q -> add_int buf q) a.Afsa.finals;
  Buffer.add_char buf 'N';
  Afsa.IMap.iter
    (fun q f ->
      add_int buf q;
      add_formula buf f)
    a.Afsa.ann;
  Buffer.contents buf

let compute a = Digest.string (serialize a)

let digest (a : Afsa.t) =
  match a.Afsa.fp with
  | Some d -> d
  | None ->
      let d = compute a in
      a.Afsa.fp <- Some d;
      d

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
