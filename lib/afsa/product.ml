(** Generic ε-tolerant product construction.

    Both intersection (Def. 3) and difference (Def. 4) of the paper are
    products over the pair state space: the automata synchronize on
    shared proper labels, and either side may take its ε-transitions
    alone. The final-state predicate and the annotation combiner are
    parameters. Only the reachable part is built.

    The construction is an explicit worklist over a hash table of pair
    states (no recursion — deep products such as long ladder protocols
    cannot overflow the stack), and it only iterates the *actual*
    outgoing edges of the left state instead of sweeping the whole
    product alphabet per state.

    Each worklist pops int-packed [(l lsl 32) lor r] pair keys from a
    flat table and merges the two packed CSR out-rows pairwise (see
    {!Afsa.Packed}); it ticks the budget once per popped pair. The
    seed's recursive map-based product stays in {!Ablation} as the
    differential oracle. *)

module F = Chorev_formula.Syntax
module Budget = Chorev_guard.Budget

(* Every product loop ticks its budget once per popped pair state, so
   a fuel bound translates directly into a bound on explored pairs. *)
let resolve = function Some b -> b | None -> Budget.ambient ()

module PairKey = struct
  type t = int * int

  let compare = compare
end

module PMap = Map.Make (PairKey)

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

(* ------------------------------------------------------------------ *)
(* Pair keys, symbol translation, discovery queue                      *)
(* ------------------------------------------------------------------ *)

module P = Afsa.Packed

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

(* First edge index of symbol [sid] within row [lo, hi) of [row_sym]
   (rows are sorted by symbol id), or -1 when absent. *)
let find_group row_sym lo hi sid =
  let l = ref lo and h = ref hi in
  while !l < !h do
    let mid = (!l + !h) / 2 in
    if Array.unsafe_get row_sym mid < sid then l := mid + 1 else h := mid
  done;
  if !l < hi && row_sym.(!l) = sid then !l else -1

(* Left pack's symbol id → right pack's, or -1: both tables are
   ascending in the same symbol order, so one merge walk suffices — no
   per-call hashing of label strings (the per-call setup used to
   dominate products over large alphabets with tiny per-pair work). *)
let left_to_right pa pb =
  let nl = Array.length pa.P.syms and nr = Array.length pb.P.syms in
  let l2r = Array.make (max 1 nl) (-1) in
  let j = ref 0 in
  for i = 0 to nl - 1 do
    let s = pa.P.syms.(i) in
    while !j < nr && Sym.compare pb.P.syms.(!j) s < 0 do
      incr j
    done;
    if !j < nr && Sym.compare pb.P.syms.(!j) s = 0 then l2r.(i) <- !j
  done;
  l2r

let rec sorted_labels = function
  | a :: (b :: _ as rest) -> Label.compare a b <= 0 && sorted_labels rest
  | _ -> true

(* Per-symbol-id membership in the product alphabet. Product alphabets
   come from [Label.Set.elements] and arrive sorted, so the common case
   is another merge walk; unsorted caller-supplied lists fall back to a
   hash table. *)
let alpha_mask syms alphabet =
  if sorted_labels alphabet then begin
    let n = Array.length syms in
    let mask = Array.make (max 1 n) false in
    let al = ref alphabet in
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
  end
  else begin
    let tbl = Hashtbl.create 64 in
    List.iter (fun l -> Hashtbl.replace tbl l ()) alphabet;
    Array.init (Array.length syms) (fun i ->
        match syms.(i) with Sym.L l -> Hashtbl.mem tbl l | Sym.Eps -> false)
  end

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

let finish spec ~s0 ~next ~edges ~finals ~anns ~pmap =
  Chorev_obs.Metrics.add c_pairs !next;
  if Chorev_obs.Metrics.is_enabled () then
    Chorev_obs.Metrics.add c_edges (List.length !edges);
  let auto =
    Afsa.make ~alphabet:spec.alphabet ~start:s0 ~finals:!finals ~edges:!edges
      ~ann:!anns ()
  in
  (auto, pmap)

(* ------------------------------------------------------------------ *)
(* Plain product                                                       *)
(* ------------------------------------------------------------------ *)

(** [run spec a b] builds the product automaton; state pairs are
    numbered densely in discovery (BFS) order, the start is
    [(start a, start b)] = 0. Returns the automaton together with the
    pair ↦ product-state map. *)
let run ?budget spec a b =
  let budget = resolve budget in
  let pa = P.get a and pb = P.get b in
  let l2r = left_to_right pa pb in
  let alpha_l = alpha_mask pa.P.syms spec.alphabet in
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
        if spec.final (pa.P.state_ids.(i1), pb.P.state_ids.(i2)) then
          finals := id :: !finals;
        let ann =
          Chorev_formula.Simplify.simplify
            (spec.combine_ann pa.P.ann.(i1) pb.P.ann.(i2))
        in
        if not (F.equal ann F.True) then anns := (id, ann) :: !anns;
        id
  in
  let s0 = id_of pa.P.start pb.P.start in
  let cursor = ref 0 in
  while !cursor < !next do
    Budget.tick budget;
    let id = !cursor in
    let k = !disc.(id) in
    incr cursor;
    let i1 = key_fst k and i2 = key_snd k in
    (* lone ε-moves of the left (ε sorts before every proper symbol) *)
    for e = pa.P.eps_off.(i1) to pa.P.eps_off.(i1 + 1) - 1 do
      edges := (id, Sym.Eps, id_of pa.P.eps_tgt.(e) i2) :: !edges
    done;
    (* synchronized moves on shared in-alphabet labels *)
    let e = ref pa.P.row_off.(i1) in
    let hi = pa.P.row_off.(i1 + 1) in
    let rlo = pb.P.row_off.(i2) and rhi = pb.P.row_off.(i2 + 1) in
    while !e < hi do
      let sid = pa.P.row_sym.(!e) in
      let g0 = !e in
      while !e < hi && pa.P.row_sym.(!e) = sid do
        incr e
      done;
      (if alpha_l.(sid) then
         let rs = l2r.(sid) in
         if rs >= 0 then
           let r0 = find_group pb.P.row_sym rlo rhi rs in
           if r0 >= 0 then begin
             let r1 = ref r0 in
             while !r1 < rhi && pb.P.row_sym.(!r1) = rs do
               incr r1
             done;
             let sym = pa.P.syms.(sid) in
             for f1 = g0 to !e - 1 do
               let t1 = pa.P.row_tgt.(f1) in
               for f2 = r0 to !r1 - 1 do
                 edges := (id, sym, id_of t1 pb.P.row_tgt.(f2)) :: !edges
               done
             done
           end)
    done;
    (* lone ε-moves of the right *)
    for e = pb.P.eps_off.(i2) to pb.P.eps_off.(i2 + 1) - 1 do
      edges := (id, Sym.Eps, id_of i1 pb.P.eps_tgt.(e)) :: !edges
    done
  done;
  finish spec ~s0 ~next ~edges ~finals ~anns
    ~pmap:
      (PairTbl.fold
         (fun k id acc -> PMap.add ((pa.P.state_ids.(key_fst k), pb.P.state_ids.(key_snd k))) id acc)
         ids PMap.empty)

(* ------------------------------------------------------------------ *)
(* Virtually-completed products                                        *)
(* ------------------------------------------------------------------ *)

(* Definition 4 (difference) and the direct union assume *complete*
   automata. Materializing the completion adds |Q|·|Σ| sink edges —
   160k edges for a 400-state protocol over a 400-label alphabet —
   which used to dominate the cost of difference and union. The
   variants below keep the completion virtual: a sink is just a
   reserved integer outside the automaton's state space, a missing
   (state, symbol) pair moves to it implicitly, and sink states carry
   the default annotation [True]. Runs through an all-sink pair can
   never accept (both sides are total and sink-trapped), so such edges
   are pruned at generation time — exactly what [Afsa.trim] would do
   afterwards. Inside the kernels the sink is the dense index [n], one
   past the automaton's dense states. *)

(** A state id guaranteed outside [a]'s state space. *)
let sink_of a = 1 + List.fold_left max 0 (Afsa.states a)

(** [run_right_total spec ~sink a b] is {!run} with the right automaton
    implicitly completed over [spec.alphabet]: any missing (state,
    proper symbol) moves to [sink], which traps. [b] must be ε-free
    (determinize it first); [spec.final] and [spec.combine_ann] see
    [sink] as a regular right-state with annotation [True]. *)
let run_right_total ?budget spec ~sink a b =
  let budget = resolve budget in
  let pa = P.get a and pb = P.get b in
  let l2r = left_to_right pa pb in
  let alpha_l = alpha_mask pa.P.syms spec.alphabet in
  let bsink = pb.P.n in
  let orig2 i2 = if i2 = bsink then sink else pb.P.state_ids.(i2) in
  let ann2 i2 = if i2 = bsink then F.True else pb.P.ann.(i2) in
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
        if i2 = bsink then Chorev_obs.Metrics.incr c_sink_pairs;
        if spec.final (pa.P.state_ids.(i1), orig2 i2) then
          finals := id :: !finals;
        let ann =
          Chorev_formula.Simplify.simplify
            (spec.combine_ann pa.P.ann.(i1) (ann2 i2))
        in
        if not (F.equal ann F.True) then anns := (id, ann) :: !anns;
        id
  in
  let s0 = id_of pa.P.start pb.P.start in
  let cursor = ref 0 in
  while !cursor < !next do
    Budget.tick budget;
    let id = !cursor in
    let k = !disc.(id) in
    incr cursor;
    let i1 = key_fst k and i2 = key_snd k in
    (* lone ε-moves of the left *)
    for e = pa.P.eps_off.(i1) to pa.P.eps_off.(i1 + 1) - 1 do
      edges := (id, Sym.Eps, id_of pa.P.eps_tgt.(e) i2) :: !edges
    done;
    let e = ref pa.P.row_off.(i1) in
    let hi = pa.P.row_off.(i1 + 1) in
    let rlo = if i2 = bsink then 0 else pb.P.row_off.(i2) in
    let rhi = if i2 = bsink then 0 else pb.P.row_off.(i2 + 1) in
    while !e < hi do
      let sid = pa.P.row_sym.(!e) in
      let g0 = !e in
      while !e < hi && pa.P.row_sym.(!e) = sid do
        incr e
      done;
      if alpha_l.(sid) then begin
        let sym = pa.P.syms.(sid) in
        let rs = l2r.(sid) in
        let r0 = if rs < 0 then -1 else find_group pb.P.row_sym rlo rhi rs in
        if r0 < 0 then
          (* right side has no move: it falls to (or stays in) the sink *)
          for f1 = g0 to !e - 1 do
            edges := (id, sym, id_of pa.P.row_tgt.(f1) bsink) :: !edges
          done
        else begin
          let r1 = ref r0 in
          while !r1 < rhi && pb.P.row_sym.(!r1) = rs do
            incr r1
          done;
          for f1 = g0 to !e - 1 do
            let t1 = pa.P.row_tgt.(f1) in
            for f2 = r0 to !r1 - 1 do
              edges := (id, sym, id_of t1 pb.P.row_tgt.(f2)) :: !edges
            done
          done
        end
      end
    done
  done;
  finish spec ~s0 ~next ~edges ~finals ~anns
    ~pmap:
      (PairTbl.fold
         (fun k id acc ->
           PMap.add (pa.P.state_ids.(key_fst k), orig2 (key_snd k)) id acc)
         ids PMap.empty)


(** [run_both_total spec ~sink_a ~sink_b a b] virtually completes both
    sides over [spec.alphabet]. Both automata must be ε-free. Pairs
    where both sides are trapped in their sink are pruned (they can
    never accept). *)
let run_both_total ?budget spec ~sink_a ~sink_b a b =
  let budget = resolve budget in
  let pa = P.get a and pb = P.get b in
  let nl = Array.length pa.P.syms and nr = Array.length pb.P.syms in
  (* merge both symbol tables (each ascending in the same global order)
     into one universe; [l2g]/[r2g] lift pack-local ids into it *)
  let l2g = Array.make (max 1 nl) 0 and r2g = Array.make (max 1 nr) 0 in
  let g_syms = Array.make (max 1 (nl + nr)) Sym.Eps in
  let ng = ref 0 in
  let i = ref 0 and j = ref 0 in
  while !i < nl || !j < nr do
    let c =
      if !i >= nl then 1
      else if !j >= nr then -1
      else Sym.compare pa.P.syms.(!i) pb.P.syms.(!j)
    in
    let g = !ng in
    if c <= 0 then begin
      g_syms.(g) <- pa.P.syms.(!i);
      l2g.(!i) <- g;
      incr i
    end;
    if c >= 0 then begin
      g_syms.(g) <- pb.P.syms.(!j);
      r2g.(!j) <- g;
      incr j
    end;
    incr ng
  done;
  let alpha_g = alpha_mask (Array.sub g_syms 0 (max 1 !ng)) spec.alphabet in
  let asink = pa.P.n and bsink = pb.P.n in
  let orig1 i1 = if i1 = asink then sink_a else pa.P.state_ids.(i1) in
  let orig2 i2 = if i2 = bsink then sink_b else pb.P.state_ids.(i2) in
  let ann1 i1 = if i1 = asink then F.True else pa.P.ann.(i1) in
  let ann2 i2 = if i2 = bsink then F.True else pb.P.ann.(i2) in
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
  let s0 = id_of pa.P.start pb.P.start in
  let cursor = ref 0 in
  while !cursor < !next do
    Budget.tick budget;
    let id = !cursor in
    let k = !disc.(id) in
    incr cursor;
    let i1 = key_fst k and i2 = key_snd k in
    if i1 <> asink && pa.P.eps_off.(i1) <> pa.P.eps_off.(i1 + 1) then
      invalid_arg "Product.run_both_total: automaton has ε-transitions";
    if i2 <> bsink && pb.P.eps_off.(i2) <> pb.P.eps_off.(i2 + 1) then
      invalid_arg "Product.run_both_total: automaton has ε-transitions";
    (* merge-walk both out-rows by global symbol id; a side without a
       move on the current symbol falls to its sink *)
    let el = ref (if i1 = asink then 0 else pa.P.row_off.(i1)) in
    let ehl = if i1 = asink then 0 else pa.P.row_off.(i1 + 1) in
    let er = ref (if i2 = bsink then 0 else pb.P.row_off.(i2)) in
    let ehr = if i2 = bsink then 0 else pb.P.row_off.(i2 + 1) in
    while !el < ehl || !er < ehr do
      let gl = if !el < ehl then l2g.(pa.P.row_sym.(!el)) else max_int in
      let gr = if !er < ehr then r2g.(pb.P.row_sym.(!er)) else max_int in
      let g = min gl gr in
      let l0 = !el in
      if gl = g then begin
        let sid = pa.P.row_sym.(!el) in
        while !el < ehl && pa.P.row_sym.(!el) = sid do
          incr el
        done
      end;
      let r0 = !er in
      if gr = g then begin
        let sid = pb.P.row_sym.(!er) in
        while !er < ehr && pb.P.row_sym.(!er) = sid do
          incr er
        done
      end;
      if alpha_g.(g) then begin
        let sym = g_syms.(g) in
        if gl = g && gr = g then
          for f1 = l0 to !el - 1 do
            let t1 = pa.P.row_tgt.(f1) in
            for f2 = r0 to !er - 1 do
              edges := (id, sym, id_of t1 pb.P.row_tgt.(f2)) :: !edges
            done
          done
        else if gl = g then
          for f1 = l0 to !el - 1 do
            edges := (id, sym, id_of pa.P.row_tgt.(f1) bsink) :: !edges
          done
        else
          for f2 = r0 to !er - 1 do
            edges := (id, sym, id_of asink pb.P.row_tgt.(f2)) :: !edges
          done
      end
    done
  done;
  finish spec ~s0 ~next ~edges ~finals ~anns
    ~pmap:
      (PairTbl.fold
         (fun k id acc ->
           PMap.add (orig1 (key_fst k), orig2 (key_snd k)) id acc)
         ids PMap.empty)

