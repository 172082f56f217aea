(** Subset construction for aFSAs.

    Annotations of the member states of a subset are combined by
    disjunction: a deterministic run being "in" a subset corresponds to
    the nondeterministic automaton being in one of its members, so the
    obligations that must hold are those of whichever member is actually
    inhabited — the weakest combination. This follows the annotated
    deterministic FSAs of Wombacher et al. (ICWS 2004) which the paper
    builds on. *)

module F = Chorev_formula.Syntax
module Budget = Chorev_guard.Budget

(* Subsets are sorted arrays of dense state indexes, hashed FNV-style
   into a flat Hashtbl — no [ISet.compare] over balanced trees per
   visit. *)
module SubsetKey = struct
  type t = int array

  let equal a b =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i =
      i >= n || (Array.unsafe_get a i = Array.unsafe_get b i && go (i + 1))
    in
    go 0

  let hash a =
    let h = ref 0x811c9dc5 in
    Array.iter (fun x -> h := (!h lxor x) * 0x01000193 land max_int) a;
    !h
end

module SubsetTbl = Hashtbl.Make (SubsetKey)

let int_cmp (x : int) (y : int) = if x < y then -1 else if x > y then 1 else 0

(* Subset construction over the automaton's rows: one budget tick per
   newly discovered subset, DFS preorder, successor symbols visited
   ascending and member rows merged target-ascending — the same event
   order as the map-based [Ablation.determinize_ref], so the output
   automaton (state numbering, edges, annotation formula structure) and
   every fuel-bounded outcome are identical to it. Member out-rows are
   merged into reusable per-symbol target buckets; each bucket is then
   canonicalized to a sorted distinct subset either by an int sort
   (small buckets) or by a stamp-marked counting scan over the dense
   state space (large buckets) — never a [Sym.Map]-of-[ISet]
   accumulation, and no global sort of all merged edges. *)
let subsets ~budget a =
  let nsym = Array.length a.Afsa.syms in
  let next_id = ref 0 in
  let ids : int SubsetTbl.t = SubsetTbl.create 256 in
  let edges = ref [] in
  let finals = ref [] in
  let anns = ref [] in
  (* per-symbol target buckets, reused across visits (drained into
     fresh subset arrays before any recursion) *)
  let bucket = Array.make (max 1 nsym) [||] in
  let blen = Array.make (max 1 nsym) 0 in
  let bpush s t =
    let b = bucket.(s) in
    let l = blen.(s) in
    if l = Array.length b then begin
      let nb = Array.make (max 8 (2 * l)) 0 in
      Array.blit b 0 nb 0 l;
      bucket.(s) <- nb;
      nb.(l) <- t
    end
    else b.(l) <- t;
    blen.(s) <- l + 1
  in
  (* stamp array for the counting-scan canonicalization *)
  let stamp = Array.make (max 1 a.Afsa.n) (-1) in
  let round = ref 0 in
  let rec visit (members : int array) =
    match SubsetTbl.find_opt ids members with
    | Some id -> id
    | None ->
        (* one fuel unit per discovered subset — the exponential axis *)
        Budget.tick budget;
        let id = !next_id in
        incr next_id;
        SubsetTbl.add ids members id;
        if Array.exists (fun i -> Bitset.mem a.Afsa.finals i) members then
          finals := id :: !finals;
        let ann =
          Array.fold_left
            (fun acc i -> F.or_ a.Afsa.ann.(i) acc)
            F.False members
        in
        let ann = Chorev_formula.Simplify.simplify ann in
        if not (F.equal ann F.True) then anns := (id, ann) :: !anns;
        (* merge the members' out-rows into the per-symbol buckets *)
        let touched = ref [] in
        Array.iter
          (fun i ->
            for e = a.Afsa.row_off.(i) to a.Afsa.row_off.(i + 1) - 1 do
              let s = a.Afsa.row_sym.(e) in
              if blen.(s) = 0 then touched := s :: !touched;
              bpush s a.Afsa.row_tgt.(e)
            done)
          members;
        let sids = Array.of_list (List.sort int_cmp !touched) in
        (* drain every bucket into a canonical (sorted, distinct) subset
           array before recursing — the buckets are shared state *)
        let groups =
          Array.map
            (fun sid ->
              let m = blen.(sid) in
              blen.(sid) <- 0;
              let b = bucket.(sid) in
              let tgts =
                if 4 * m >= a.Afsa.n then begin
                  (* counting scan: mark, then collect ascending *)
                  incr round;
                  let r = !round in
                  let cnt = ref 0 in
                  for j = 0 to m - 1 do
                    let t = b.(j) in
                    if stamp.(t) <> r then begin
                      stamp.(t) <- r;
                      incr cnt
                    end
                  done;
                  let out = Array.make !cnt 0 in
                  let k = ref 0 in
                  for t = 0 to a.Afsa.n - 1 do
                    if stamp.(t) = r then begin
                      out.(!k) <- t;
                      incr k
                    end
                  done;
                  out
                end
                else begin
                  let sub = Array.sub b 0 m in
                  Array.sort int_cmp sub;
                  let k = ref 0 in
                  for j = 0 to m - 1 do
                    if !k = 0 || sub.(!k - 1) <> sub.(j) then begin
                      sub.(!k) <- sub.(j);
                      incr k
                    end
                  done;
                  if !k = m then sub else Array.sub sub 0 !k
                end
              in
              (sid, tgts))
            sids
        in
        Array.iter
          (fun (sid, tgts) ->
            let tid = visit tgts in
            edges := (id, a.Afsa.syms.(sid), tid) :: !edges)
          groups;
        id
  in
  let s0 = visit [| a.Afsa.start |] in
  Afsa.make ~alphabet:(Afsa.alphabet a) ~start:s0 ~finals:!finals
    ~edges:!edges ~ann:!anns ()

(** Determinize; the result has no ε-transitions and at most one
    transition per (state, label). State numbering is dense from 0
    (start = 0). *)
let determinize ?budget a =
  let budget =
    match budget with Some b -> b | None -> Budget.ambient ()
  in
  let a = Epsilon.eliminate ~budget a in
  if Afsa.is_deterministic a then fst (Afsa.renumber a)
  else subsets ~budget a
