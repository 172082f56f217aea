(** Generic ε-tolerant product construction: intersection (Def. 3),
    difference (Def. 4) and union (Sec. 5.2, step 2) are all products
    over the pair state space. The automata synchronize on shared
    proper labels, either side may take its ε-transitions alone, and
    either side may be completed virtually by giving it a sink; the
    final-state predicate and the annotation combiner are parameters.

    One explicit worklist over int-packed [(l lsl 32) lor r] pair keys
    builds the reachable part (no recursion, so deep products such as
    long ladders cannot overflow the stack). Each popped pair ticks the
    budget once and merge-walks the two automata's CSR out-rows instead
    of sweeping the product alphabet. The seed's recursive map-based
    product stays in {!Ablation} as the differential oracle. *)

module F = Chorev_formula.Syntax
module Budget = Chorev_guard.Budget

type spec = {
  alphabet : Label.t list;  (** alphabet of the product *)
  final : int * int -> bool;
  combine_ann : F.t -> F.t -> F.t;
}

(* Worklist-level instrumentation (DESIGN.md §7): pair states explored
   across all product constructions, product edges generated, and pairs
   involving a virtual completion sink. The [add]s run once per product
   call (plus one branch per sink pair), so the counters are free on
   the inner loop even when metrics collection is on. *)
let c_pairs = Chorev_obs.Metrics.counter "afsa.product.pairs"
let c_edges = Chorev_obs.Metrics.counter "afsa.product.edges"
let c_sink_pairs = Chorev_obs.Metrics.counter "afsa.product.sink_pairs"

(* Dense pair keys. Dense indexes are bounded by the state counts, far
   below 2^31, so the packing is exact. *)
let key i1 i2 = (i1 lsl 32) lor i2
let key_fst k = k lsr 32
let key_snd k = k land 0xFFFFFFFF

(* The polymorphic [Hashtbl.hash] folds an int's halves so that every
   diagonal key [(i lsl 32) lor i] collides on ONE hash value — a
   product's pair table would degenerate into a single linked-list
   bucket (quadratic discovery). Fischer/Knuth multiplicative mixing
   over the full word instead; the multiplier fits in 63-bit ints and
   the wrap-around is the point. *)
module PairTbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) (b : int) = a = b
  let hash k = (k * 0x2545F4914F6CDD1D) lsr 32 land 0x3FFFFFFF
end)

(* Merge both symbol tables (each ascending in the same global order)
   into one ascending universe; [l2g] / [r2g] lift each side's symbol
   ids into it. One merge walk per call — no hashing of label
   strings, which would dominate products over large alphabets with
   tiny per-pair work. *)
let universe a b =
  let nl = Array.length a.Afsa.syms and nr = Array.length b.Afsa.syms in
  let l2g = Array.make (max 1 nl) 0 and r2g = Array.make (max 1 nr) 0 in
  let g_syms = Array.make (max 1 (nl + nr)) Sym.Eps in
  let ng = ref 0 in
  let i = ref 0 and j = ref 0 in
  while !i < nl || !j < nr do
    let c =
      if !i >= nl then 1
      else if !j >= nr then -1
      else Sym.compare a.Afsa.syms.(!i) b.Afsa.syms.(!j)
    in
    let g = !ng in
    if c <= 0 then begin
      g_syms.(g) <- a.Afsa.syms.(!i);
      l2g.(!i) <- g;
      incr i
    end;
    if c >= 0 then begin
      g_syms.(g) <- b.Afsa.syms.(!j);
      r2g.(!j) <- g;
      incr j
    end;
    incr ng
  done;
  (l2g, r2g, Array.sub g_syms 0 (max 1 !ng))

let rec sorted_labels = function
  | a :: (b :: _ as rest) -> Label.compare a b <= 0 && sorted_labels rest
  | _ -> true

(* Per-symbol-id membership in the product alphabet, by another merge
   walk. Product alphabets come from [Label.Set.elements] and arrive
   sorted; other lists are sorted first. *)
let alpha_mask syms alphabet =
  let n = Array.length syms in
  let mask = Array.make (max 1 n) false in
  let al =
    ref
      (if sorted_labels alphabet then alphabet
       else List.sort Label.compare alphabet)
  in
  for i = 0 to n - 1 do
    match syms.(i) with
    | Sym.Eps -> ()
    | Sym.L l ->
        let rec skip () =
          match !al with
          | x :: rest when Label.compare x l < 0 ->
              al := rest;
              skip ()
          | _ -> ()
        in
        skip ();
        (match !al with
        | x :: _ when Label.compare x l = 0 -> mask.(i) <- true
        | _ -> ())
  done;
  mask

(* The discovery array doubles as the FIFO: [disc.(id)] is the pair key
   discovered as [id], and popping is a cursor walk — pairs are pushed
   and popped in id (BFS discovery) order. *)
let grow disc id k =
  let d = !disc in
  let d =
    if id < Array.length d then d
    else begin
      let nd = Array.make (2 * Array.length d) 0 in
      Array.blit d 0 nd 0 (Array.length d);
      disc := nd;
      nd
    end
  in
  d.(id) <- k

(* Difference (Def. 4) and the direct union assume *complete* automata.
   Materializing the completion adds |Q|·|Σ| sink edges — 160k edges
   for a 400-state protocol over a 400-label alphabet — which would
   dominate their cost. A sink instead is a reserved integer outside
   the automaton's state space, which a missing (state, symbol) pair
   moves to implicitly; inside [run] it is the dense index [n], one
   past the side's dense states. *)
let sink_of a = 1 + max 0 a.Afsa.state_ids.(a.Afsa.n - 1)

(* A pair with both sides in their sinks is never built: the merge walk
   visits only symbols one of the two rows has. *)
let run ?budget ?sink_a ?sink_b spec a b =
  let budget =
    match budget with Some b -> b | None -> Budget.ambient ()
  in
  let completed_a = Option.is_some sink_a
  and completed_b = Option.is_some sink_b in
  if (completed_a && Afsa.has_eps a) || (completed_b && Afsa.has_eps b)
  then invalid_arg "Product.run: a completed side has ε-transitions";
  let l2g, r2g, g_syms = universe a b in
  let alpha_g = alpha_mask g_syms spec.alphabet in
  let asink = a.Afsa.n and bsink = b.Afsa.n in
  let orig1 i1 =
    if i1 = asink then Option.get sink_a else a.Afsa.state_ids.(i1)
  and orig2 i2 =
    if i2 = bsink then Option.get sink_b else b.Afsa.state_ids.(i2)
  and ann1 i1 = if i1 = asink then F.True else a.Afsa.ann.(i1)
  and ann2 i2 = if i2 = bsink then F.True else b.Afsa.ann.(i2) in
  let next = ref 0 in
  let ids : int PairTbl.t = PairTbl.create 256 in
  let disc = ref (Array.make 256 0) in
  let edges = ref [] in
  let finals = ref [] in
  let anns = ref [] in
  let id_of i1 i2 =
    let k = key i1 i2 in
    match PairTbl.find_opt ids k with
    | Some id -> id
    | None ->
        let id = !next in
        incr next;
        PairTbl.add ids k id;
        grow disc id k;
        if i1 = asink || i2 = bsink then Chorev_obs.Metrics.incr c_sink_pairs;
        if spec.final (orig1 i1, orig2 i2) then finals := id :: !finals;
        let ann =
          Chorev_formula.Simplify.simplify
            (spec.combine_ann (ann1 i1) (ann2 i2))
        in
        if not (F.equal ann F.True) then anns := (id, ann) :: !anns;
        id
  in
  let s0 = id_of a.Afsa.start b.Afsa.start in
  let cursor = ref 0 in
  while !cursor < !next do
    Budget.tick budget;
    let id = !cursor in
    let k = !disc.(id) in
    incr cursor;
    let i1 = key_fst k and i2 = key_snd k in
    (* lone ε-moves of the left (a completed side has none) *)
    if not completed_a then
      for e = a.Afsa.eps_off.(i1) to a.Afsa.eps_off.(i1 + 1) - 1 do
        edges := (id, Sym.Eps, id_of a.Afsa.eps_tgt.(e) i2) :: !edges
      done;
    (* merge-walk both out-rows by global symbol id: a shared symbol
       gives the cross product, a one-sided symbol moves the other side
       to its sink if it has one and gives nothing otherwise *)
    let el = ref (if i1 = asink then 0 else a.Afsa.row_off.(i1)) in
    let ehl = if i1 = asink then 0 else a.Afsa.row_off.(i1 + 1) in
    let er = ref (if i2 = bsink then 0 else b.Afsa.row_off.(i2)) in
    let ehr = if i2 = bsink then 0 else b.Afsa.row_off.(i2 + 1) in
    while
      (!el < ehl && (!er < ehr || completed_b)) || (!er < ehr && completed_a)
    do
      let gl = if !el < ehl then l2g.(a.Afsa.row_sym.(!el)) else max_int in
      let gr = if !er < ehr then r2g.(b.Afsa.row_sym.(!er)) else max_int in
      let g = min gl gr in
      let l0 = !el in
      if gl = g then begin
        let sid = a.Afsa.row_sym.(!el) in
        while !el < ehl && a.Afsa.row_sym.(!el) = sid do
          incr el
        done
      end;
      let r0 = !er in
      if gr = g then begin
        let sid = b.Afsa.row_sym.(!er) in
        while !er < ehr && b.Afsa.row_sym.(!er) = sid do
          incr er
        done
      end;
      if alpha_g.(g) then begin
        let sym = g_syms.(g) in
        if gl = g && gr = g then
          for f1 = l0 to !el - 1 do
            let t1 = a.Afsa.row_tgt.(f1) in
            for f2 = r0 to !er - 1 do
              edges := (id, sym, id_of t1 b.Afsa.row_tgt.(f2)) :: !edges
            done
          done
        else if gl = g && completed_b then
          for f1 = l0 to !el - 1 do
            edges := (id, sym, id_of a.Afsa.row_tgt.(f1) bsink) :: !edges
          done
        else if gr = g && completed_a then
          for f2 = r0 to !er - 1 do
            edges := (id, sym, id_of asink b.Afsa.row_tgt.(f2)) :: !edges
          done
      end
    done;
    (* lone ε-moves of the right *)
    if not completed_b then
      for e = b.Afsa.eps_off.(i2) to b.Afsa.eps_off.(i2 + 1) - 1 do
        edges := (id, Sym.Eps, id_of i1 b.Afsa.eps_tgt.(e)) :: !edges
      done
  done;
  Chorev_obs.Metrics.add c_pairs !next;
  if Chorev_obs.Metrics.is_enabled () then
    Chorev_obs.Metrics.add c_edges (List.length !edges);
  Afsa.make ~alphabet:spec.alphabet ~start:s0 ~finals:!finals ~edges:!edges
    ~ann:!anns ()
