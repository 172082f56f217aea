(* The constructor that Chorev_afsa.Afsa.make replaced, kept as the
   oracle of the [make] differential in test_afsa: its symbol table is
   a [Sym.Set] of the given alphabet and every edge label, built on
   every call, and it sorts each row through a copy ([Array.sub] then
   [Array.sort]). [Afsa.t] is private, so it returns the arrays as
   {!Fingerprint_ref.parts}. No production code calls it. *)

module F = Chorev_formula.Syntax
module Sym = Chorev_afsa.Sym
module Bitset = Chorev_afsa.Bitset

let bsearch cmp n =
  let rec go lo hi =
    if lo > hi then -1
    else
      let mid = (lo + hi) / 2 in
      let c = cmp mid in
      if c = 0 then mid else if c < 0 then go (mid + 1) hi else go lo (mid - 1)
  in
  go 0 (n - 1)

let dense_in ids q =
  let n = Array.length ids in
  if n > 0 && ids.(n - 1) - ids.(0) = n - 1 then
    if q >= ids.(0) && q <= ids.(n - 1) then q - ids.(0) else -1
  else bsearch (fun i -> Int.compare ids.(i) q) n

let sym_id syms sym =
  bsearch (fun i -> Sym.compare syms.(i) sym) (Array.length syms)

let collect_ids ~start ~finals ~edges ~ann =
  let lo = ref start and hi = ref start and cnt = ref 0 in
  let see q =
    incr cnt;
    if q < !lo then lo := q else if q > !hi then hi := q
  in
  let each f =
    f start;
    List.iter f finals;
    List.iter
      (fun (s, _, t) ->
        f s;
        f t)
      edges;
    List.iter (fun (q, _) -> f q) ann
  in
  each see;
  let lo = !lo and range = !hi - !lo + 1 in
  if range > 0 && range <= 4 * !cnt then begin
    let seen = Bitset.create range in
    each (fun q -> Bitset.add seen (q - lo));
    let ids = Array.make (Bitset.cardinal seen) 0 in
    let k = ref 0 in
    Bitset.iter
      (fun i ->
        ids.(!k) <- lo + i;
        incr k)
      seen;
    ids
  end
  else begin
    let all = Array.make !cnt start and k = ref 0 in
    each (fun q ->
        all.(!k) <- q;
        incr k);
    Array.sort Int.compare all;
    let w = ref 1 in
    for i = 1 to !cnt - 1 do
      if all.(i) <> all.(!w - 1) then begin
        all.(!w) <- all.(i);
        incr w
      end
    done;
    Array.sub all 0 !w
  end

let sort_uniq_into (a : int array) ~dst lo hi =
  let s = Array.sub a lo (hi - lo) in
  Array.sort Int.compare s;
  let w = ref dst in
  for k = 0 to hi - lo - 1 do
    if !w = dst || a.(!w - 1) <> s.(k) then begin
      a.(!w) <- s.(k);
      incr w
    end
  done;
  !w

let csr n m src key =
  let off = Array.make (n + 1) 0 in
  for e = 0 to m - 1 do
    off.(src.(e) + 1) <- off.(src.(e) + 1) + 1
  done;
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i + 1) + off.(i)
  done;
  let buf = Array.make m 0 and cur = Array.sub off 0 n in
  for e = 0 to m - 1 do
    let s = src.(e) in
    buf.(cur.(s)) <- key.(e);
    cur.(s) <- cur.(s) + 1
  done;
  let w = ref 0 in
  for i = 0 to n - 1 do
    let lo = off.(i) and hi = off.(i + 1) in
    off.(i) <- !w;
    w := sort_uniq_into buf ~dst:!w lo hi
  done;
  off.(n) <- !w;
  (off, if !w = m then buf else Array.sub buf 0 !w)

let make ?(alphabet = []) ~start ~finals ~edges ?(ann = []) () :
    Fingerprint_ref.parts =
  let ann =
    List.map (fun (q, f) -> (q, Chorev_formula.Simplify.simplify f)) ann
  in
  let state_ids = collect_ids ~start ~finals ~edges ~ann in
  let n = Array.length state_ids in
  let dense = dense_in state_ids in
  let neps =
    List.fold_left
      (fun c (_, sym, _) -> if Sym.is_eps sym then c + 1 else c)
      0 edges
  in
  let ne = List.length edges - neps in
  let syms =
    List.fold_left
      (fun set (_, sym, _) ->
        if Sym.is_eps sym then set else Sym.Set.add sym set)
      (Sym.Set.of_list (List.map Sym.label alphabet))
      edges
    |> Sym.Set.elements |> Array.of_list
  in
  let src = Array.make ne 0 and key = Array.make ne 0 in
  let esrc = Array.make neps 0 and etgt = Array.make neps 0 in
  let k = ref 0 and j = ref 0 in
  List.iter
    (fun (s, sym, t) ->
      match sym with
      | Sym.Eps ->
          esrc.(!j) <- dense s;
          etgt.(!j) <- dense t;
          incr j
      | Sym.L _ ->
          src.(!k) <- dense s;
          key.(!k) <- (sym_id syms sym * n) + dense t;
          incr k)
    edges;
  let row_off, row_key = csr n ne src key in
  let eps_off, eps_tgt = csr n neps esrc etgt in
  let finals_set = Bitset.create n in
  List.iter (fun q -> Bitset.add finals_set (dense q)) finals;
  let ann_a = Array.make n F.True and ann_nontrivial = Bitset.create n in
  List.iter
    (fun (q, f) ->
      if not (F.equal f F.True) then begin
        let i = dense q in
        ann_a.(i) <- f;
        Bitset.add ann_nontrivial i
      end)
    ann;
  {
    n;
    state_ids;
    start = dense start;
    syms;
    row_off;
    row_sym = Array.map (fun k -> k / n) row_key;
    row_tgt = Array.map (fun k -> k mod n) row_key;
    eps_off;
    eps_tgt;
    finals = finals_set;
    ann = ann_a;
    ann_nontrivial;
  }
