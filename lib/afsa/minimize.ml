(** Minimization of deterministic aFSAs by partition refinement.

    The initial partition distinguishes states by finality *and* by
    their simplified annotation, so states with different
    mandatory-message obligations are never merged. Initial classes are
    keyed by the hash-consed annotation itself ([Syntax.equal]/[hash],
    physical fast path) instead of its printed string, and
    already-deterministic ε-free inputs skip the determinization pass
    entirely.

    Refinement runs on Valmari-style refinable partitions over flat int
    arrays: blocks are contiguous ranges of one element array, marking
    moves an element to the front of its block in O(1) and a split is
    two boundary updates. The main path trims first — only states that
    are both reachable and co-reachable take part — and then refines
    two partitions against each other: the live states, and the live
    transitions grouped into cords by label (Valmari & Lehtinen's
    two-partition scheme). That keeps the work proportional to the
    *real* transitions, O(|T|·log|T|), instead of the |Q|·|Σ| cells of
    the virtually-completed table — the difference between linear and
    quadratic on workloads whose alphabet grows with the state count
    (every scale family does). The result is the unique minimal
    annotated DFA, renumbered canonically (BFS from the start in
    sorted-label order), so two automata with the same annotated
    language minimize to structurally equal values — which is what
    {!Equiv.equal_annotated} relies on.

    Empty-language inputs (no co-reachable start) fall back to
    refinement over the virtually-completed table (one sink column
    instead of |Q|·|Σ| edges). Their result is always one dead state,
    which keeps exactly the self-loops and annotation that the start's
    class under the *completed* relation has; that class is what the
    fallback computes, and it builds no quotient beyond it. *)

module F = Chorev_formula.Syntax
module Budget = Chorev_guard.Budget
module IMap = Afsa.IMap

(* Instrumentation (DESIGN.md §7): minimization runs, the cells of the
   virtually-completed transition table (states × symbols) that the
   empty-language fallback builds, and runs that skipped
   determinization because the input was already deterministic and
   ε-free. *)
let c_runs = Chorev_obs.Metrics.counter "afsa.minimize.runs"
let c_table_cells = Chorev_obs.Metrics.counter "afsa.minimize.table_cells"
let c_det_fastpath = Chorev_obs.Metrics.counter "afsa.minimize.det_fastpath"
let h_states = Chorev_obs.Metrics.histogram "afsa.minimize.input_states"

(* Initial-class keys: finality × simplified annotation. Annotations
   are hash-consed, so [F.equal] is usually one physical comparison. *)
module ClassTbl = Hashtbl.Make (struct
  type t = bool * F.t

  let equal (b1, f1) (b2, f2) = Bool.equal b1 b2 && F.equal f1 f2
  let hash (b, f) = Hashtbl.hash (b, F.hash f)
end)

(** Canonical state numbering: BFS from the start over the rows, each
    state's ε-edges first and then its proper edges in sorted label
    order (the [Sym] order). Two isomorphic deterministic automata
    renumber to structurally equal ones. States unreachable from the
    start get no number and are dropped. Returns the renamed automaton
    and the old→new map, like {!Afsa.renumber}. Kept as the reference
    the fused passes inside {!minimize} and public-process generation
    must agree with. *)
let canonical_renumber m =
  let order = Array.make (max 1 m.Afsa.n) 0 in
  let newid = Array.make (max 1 m.Afsa.n) (-1) in
  let next = ref 0 in
  let visit q =
    if newid.(q) < 0 then begin
      newid.(q) <- !next;
      order.(!next) <- q;
      incr next
    end
  in
  visit m.Afsa.start;
  let head = ref 0 in
  while !head < !next do
    let s = order.(!head) in
    incr head;
    for e = m.Afsa.eps_off.(s) to m.Afsa.eps_off.(s + 1) - 1 do
      visit m.Afsa.eps_tgt.(e)
    done;
    for e = m.Afsa.row_off.(s) to m.Afsa.row_off.(s + 1) - 1 do
      visit m.Afsa.row_tgt.(e)
    done
  done;
  let edges = ref [] and finals = ref [] and ann = ref [] in
  let map = ref IMap.empty in
  for i = !next - 1 downto 0 do
    let s = order.(i) in
    map := IMap.add m.Afsa.state_ids.(s) i !map;
    if Bitset.mem m.Afsa.finals s then finals := i :: !finals;
    if Bitset.mem m.Afsa.ann_nontrivial s then
      ann := (i, m.Afsa.ann.(s)) :: !ann;
    for e = m.Afsa.eps_off.(s) to m.Afsa.eps_off.(s + 1) - 1 do
      edges := (i, Sym.Eps, newid.(m.Afsa.eps_tgt.(e))) :: !edges
    done;
    for e = m.Afsa.row_off.(s) to m.Afsa.row_off.(s + 1) - 1 do
      edges :=
        (i, m.Afsa.syms.(m.Afsa.row_sym.(e)), newid.(m.Afsa.row_tgt.(e)))
        :: !edges
    done
  done;
  ( Afsa.make ~alphabet:(Afsa.alphabet m) ~start:0 ~finals:!finals
      ~edges:!edges ~ann:!ann (),
    !map )

(* A refinable partition of the dense ids [0..m-1] (used both for
   states and for transitions).

   [elems] lists the ids, grouped so each block occupies a contiguous
   range [first.(b), past.(b)); [loc.(e)] is [e]'s position in [elems]
   and [blk.(e)] its block. Marking an element swaps it into the marked
   prefix of its block (O(1)); splitting a block with both marked and
   unmarked elements moves one boundary and gives the *smaller* half
   the fresh block id — the invariant the "process the smaller half"
   amortization needs. *)
type partition = {
  elems : int array;
  loc : int array;
  blk : int array;
  first : int array;
  past : int array;
  marked : int array;
  touched : int array;  (* blocks with ≥1 marked element, this splitter *)
  mutable ntouched : int;
  mutable nblocks : int;
}

let mark p e =
  let b = p.blk.(e) in
  let i = p.loc.(e) in
  let mstart = p.first.(b) + p.marked.(b) in
  if i >= mstart then begin
    let e' = p.elems.(mstart) in
    p.elems.(i) <- e';
    p.loc.(e') <- i;
    p.elems.(mstart) <- e;
    p.loc.(e) <- mstart;
    if p.marked.(b) = 0 then begin
      p.touched.(p.ntouched) <- b;
      p.ntouched <- p.ntouched + 1
    end;
    p.marked.(b) <- p.marked.(b) + 1
  end

(* Split every touched block into marked/unmarked halves; [on_new z] is
   called once per block created. *)
let split_touched p on_new =
  for ti = 0 to p.ntouched - 1 do
    let y = p.touched.(ti) in
    let mk = p.marked.(y) in
    let sz = p.past.(y) - p.first.(y) in
    p.marked.(y) <- 0;
    if mk < sz then begin
      let z = p.nblocks in
      p.nblocks <- z + 1;
      if mk <= sz - mk then begin
        (* fresh block = marked prefix *)
        p.first.(z) <- p.first.(y);
        p.past.(z) <- p.first.(y) + mk;
        p.first.(y) <- p.past.(z)
      end
      else begin
        (* fresh block = unmarked suffix *)
        p.first.(z) <- p.first.(y) + mk;
        p.past.(z) <- p.past.(y);
        p.past.(y) <- p.first.(z)
      end;
      for i = p.first.(z) to p.past.(z) - 1 do
        p.blk.(p.elems.(i)) <- z
      done;
      on_new z
    end
  done;
  p.ntouched <- 0

(* Partition of [0..m-1] from a dense class assignment [cls] (classes
   [0..ncls-1]), elements laid out block-contiguously by counting
   sort. [cap] bounds how many blocks the partition can ever hold,
   splits included. *)
let partition_make ~cap m cls ncls =
  let cap = max 1 cap in
  let p =
    {
      elems = Array.make (max 1 m) 0;
      loc = Array.make (max 1 m) 0;
      blk = Array.make (max 1 m) 0;
      first = Array.make cap 0;
      past = Array.make cap 0;
      marked = Array.make cap 0;
      touched = Array.make cap 0;
      ntouched = 0;
      nblocks = ncls;
    }
  in
  Array.blit cls 0 p.blk 0 m;
  let sizes = Array.make (max 1 ncls) 0 in
  for e = 0 to m - 1 do
    sizes.(cls.(e)) <- sizes.(cls.(e)) + 1
  done;
  let off = ref 0 in
  for b = 0 to ncls - 1 do
    p.first.(b) <- !off;
    off := !off + sizes.(b);
    p.past.(b) <- !off;
    sizes.(b) <- p.first.(b)
  done;
  for e = 0 to m - 1 do
    let b = cls.(e) in
    p.elems.(sizes.(b)) <- e;
    p.loc.(e) <- sizes.(b);
    sizes.(b) <- sizes.(b) + 1
  done;
  p

(* Initial state classes by (finality, simplified annotation), densely
   numbered in first-seen order. *)
let initial_classes nstates final_of ann_of =
  let class_ids = ClassTbl.create 16 in
  let cls = Array.make (max 1 nstates) 0 in
  let ncls = ref 0 in
  for q = 0 to nstates - 1 do
    let key = (final_of q, ann_of q) in
    let b =
      match ClassTbl.find_opt class_ids key with
      | Some b -> b
      | None ->
          let b = !ncls in
          incr ncls;
          ClassTbl.add class_ids key b;
          b
    in
    cls.(q) <- b
  done;
  (cls, !ncls)

(* ------------------------------------------------------------------ *)
(* Fallback: refinement over the virtually-completed table.           *)
(* ------------------------------------------------------------------ *)

(* Only empty-language inputs come here: the single state the result
   keeps stands for the start's equivalence class under the
   *completed* relation (dead states merge with the sink only when
   their whole behaviour does), and its surviving self-loops and
   annotation depend on that class — which the sparse live-core path
   never computes. Inputs with a live start never reach this function;
   size is whatever the automaton is, and empty-language automata are
   small in practice, so the |Q|·|Σ| table is affordable here. *)
let minimize_completed budget d =
  let n = d.Afsa.n and k = Array.length d.Afsa.syms in
  Chorev_obs.Metrics.add c_table_cells (k * (n + 1));
  let sink = n in
  let m = n + 1 in
  (* Transition table of the virtually-completed DFA: succ.(q*k + c),
     missing transitions go to the sink column; the symbol ids are the
     columns. *)
  let succ = Array.make (max 1 (m * k)) sink in
  for q = 0 to n - 1 do
    for e = d.Afsa.row_off.(q) to d.Afsa.row_off.(q + 1) - 1 do
      succ.((q * k) + d.Afsa.row_sym.(e)) <- d.Afsa.row_tgt.(e)
    done
  done;
  (* Per-symbol CSR predecessor table: the c-predecessors of dense
     state t are cdata.(c).(j) for coff.(c).(t) ≤ j < coff.(c).(t+1).
     Exactly m entries per symbol (the DFA is complete). *)
  let coff = Array.init k (fun _ -> Array.make (m + 1) 0) in
  let cdata = Array.init k (fun _ -> Array.make m 0) in
  for q = 0 to m - 1 do
    for c = 0 to k - 1 do
      let o = coff.(c) in
      let t = succ.((q * k) + c) in
      o.(t + 1) <- o.(t + 1) + 1
    done
  done;
  for c = 0 to k - 1 do
    let o = coff.(c) in
    for t = 0 to m - 1 do
      o.(t + 1) <- o.(t + 1) + o.(t)
    done
  done;
  let cursor = Array.init k (fun c -> Array.copy coff.(c)) in
  for q = 0 to m - 1 do
    for c = 0 to k - 1 do
      let t = succ.((q * k) + c) in
      let cur = cursor.(c) in
      cdata.(c).(cur.(t)) <- q;
      cur.(t) <- cur.(t) + 1
    done
  done;
  (* Finality and (simplified) annotation per dense id; the sink is a
     non-final True state. *)
  let final_d = Array.make m false in
  let ann_d = Array.make m F.True in
  for q = 0 to n - 1 do
    final_d.(q) <- Bitset.mem d.Afsa.finals q;
    ann_d.(q) <- Chorev_formula.Simplify.simplify d.Afsa.ann.(q)
  done;
  let cls, ncls = initial_classes m (Array.get final_d) (Array.get ann_d) in
  let p = partition_make ~cap:m m cls ncls in
  (* Worklist of (block, symbol), encoded b*k+c. Each pair enters at
     most once (at block creation), so m*k bounds the stack. *)
  let wstack = Array.make (max 1 (m * k)) 0 in
  let wtop = ref 0 in
  let push b =
    for c = 0 to k - 1 do
      wstack.(!wtop) <- (b * k) + c;
      incr wtop
    done
  in
  for b = 0 to ncls - 1 do
    push b
  done;
  let scratch = Array.make m 0 in
  while !wtop > 0 do
    Budget.tick budget;
    decr wtop;
    let code = wstack.(!wtop) in
    let b = code / k and c = code mod k in
    (* Copy the splitter's members first: marking reorders [elems]
       inside other blocks — including b itself when a member's
       c-successor lands back in b. *)
    let f0 = p.first.(b) in
    let cnt = p.past.(b) - f0 in
    Array.blit p.elems f0 scratch 0 cnt;
    let o = coff.(c) and data = cdata.(c) in
    for i = 0 to cnt - 1 do
      let t = scratch.(i) in
      for j = o.(t) to o.(t + 1) - 1 do
        mark p data.(j)
      done
    done;
    split_touched p push
  done;
  (* The start is not co-reachable, so neither is its block: a path
     from it to a final block in the stable quotient would be a path
     from the start to a final state. The language is empty; keep one
     state, preserving the start block's real self-loops and annotation
     (what trimming the materialized quotient used to leave behind). *)
  let rep b = p.elems.(p.first.(b)) in
  let sb = p.blk.(d.Afsa.start) in
  let edges = ref [] in
  for c = k - 1 downto 0 do
    if p.blk.(succ.((rep sb * k) + c)) = sb then begin
      (* a self-loop survives only if backed by a non-sink target *)
      let backed = ref false in
      for i = p.first.(sb) to p.past.(sb) - 1 do
        let q = p.elems.(i) in
        if q <> sink && succ.((q * k) + c) <> sink then backed := true
      done;
      if !backed then edges := (0, d.Afsa.syms.(c), 0) :: !edges
    end
  done;
  let ann = if rep sb = sink then [] else [ (0, ann_d.(rep sb)) ] in
  Afsa.make ~alphabet:(Afsa.alphabet d) ~start:0 ~finals:[] ~edges:!edges ~ann
    ()

(* ------------------------------------------------------------------ *)
(* Main path: trim first, then refine states against transition cords *)
(* over the live core only.                                           *)
(* ------------------------------------------------------------------ *)

let minimize ?budget a =
  let budget =
    match budget with Some b -> b | None -> Budget.ambient ()
  in
  Chorev_obs.Metrics.incr c_runs;
  (* A deterministic input (no ε, ≤1 target per symbol) goes straight
     to refinement; determinization would only ε-eliminate (a no-op)
     and renumber (the dense mapping below subsumes it). *)
  let d =
    if Afsa.is_deterministic a then begin
      Chorev_obs.Metrics.incr c_det_fastpath;
      a
    end
    else Determinize.determinize ~budget a
  in
  let n = d.Afsa.n in
  Chorev_obs.Metrics.observe h_states (float_of_int n);
  let k = Array.length d.Afsa.syms in
  if n = 0 then minimize_completed budget d
  else begin
    (* Real transitions are the proper edges, one per (state,
       symbol): edge [t] runs from dense [tt.(t)] to dense [th.(t)] on
       label column [tl.(t)] (the symbol id). *)
    let t0 = d.Afsa.row_off.(n) in
    let tt = Array.make (max 1 t0) 0 in
    for q = 0 to n - 1 do
      let lo = d.Afsa.row_off.(q) in
      Array.fill tt lo (d.Afsa.row_off.(q + 1) - lo) q
    done;
    let tl = d.Afsa.row_sym and th = d.Afsa.row_tgt in
    (* Reachability from the start and co-reachability from the finals
       over the real edges; only their intersection (the live core)
       takes part in refinement. Any path from the start to a live
       state runs through live states, so the quotient stays connected. *)
    let start_d = d.Afsa.start in
    let reach = Afsa.reach d [ start_d ] and coreach = Afsa.coreach d in
    if not (Bitset.mem reach start_d && Bitset.mem coreach start_d) then
      minimize_completed budget d
    else begin
      let live q = Bitset.mem reach q && Bitset.mem coreach q in
      let lid = Array.make n (-1) in
      let nl = ref 0 in
      for q = 0 to n - 1 do
        if live q then begin
          lid.(q) <- !nl;
          incr nl
        end
      done;
      let nl = !nl in
      let lstate = Array.make nl 0 in
      for q = 0 to n - 1 do
        if lid.(q) >= 0 then lstate.(lid.(q)) <- q
      done;
      (* Live transitions in ascending label order (counting sort);
         edges into dead states disappear — a dead successor is
         indistinguishable from a missing one. *)
      let lcnt = Array.make (k + 1) 0 in
      for t = 0 to t0 - 1 do
        lcnt.(tl.(t) + 1) <- lcnt.(tl.(t) + 1) + 1
      done;
      for c = 0 to k - 1 do
        lcnt.(c + 1) <- lcnt.(c + 1) + lcnt.(c)
      done;
      let ord = Array.make (max 1 t0) 0 in
      let cur = Array.copy lcnt in
      for t = 0 to t0 - 1 do
        ord.(cur.(tl.(t))) <- t;
        cur.(tl.(t)) <- cur.(tl.(t)) + 1
      done;
      let ft = Array.make (max 1 t0) 0 in
      let fl = Array.make (max 1 t0) 0 in
      let fh = Array.make (max 1 t0) 0 in
      let tn = ref 0 in
      for i = 0 to t0 - 1 do
        let t = ord.(i) in
        if live tt.(t) && live th.(t) then begin
          ft.(!tn) <- lid.(tt.(t));
          fl.(!tn) <- tl.(t);
          fh.(!tn) <- lid.(th.(t));
          incr tn
        end
      done;
      let tn = !tn in
      (* Out-CSR by tail: stable over the label order, so each state's
         transitions come out label-ascending — the order the canonical
         BFS needs. In-CSR by head drives cord marking. *)
      let lcsr key =
        let off = Array.make (nl + 1) 0 in
        for t = 0 to tn - 1 do
          off.(key.(t) + 1) <- off.(key.(t) + 1) + 1
        done;
        for q = 0 to nl - 1 do
          off.(q + 1) <- off.(q + 1) + off.(q)
        done;
        let data = Array.make (max 1 tn) 0 in
        let cur = Array.copy off in
        for t = 0 to tn - 1 do
          data.(cur.(key.(t))) <- t;
          cur.(key.(t)) <- cur.(key.(t)) + 1
        done;
        (off, data)
      in
      let ooff, oidx = lcsr ft in
      let inoff, inidx = lcsr fh in
      let final_l = Array.make (max 1 nl) false in
      let ann_l = Array.make (max 1 nl) F.True in
      for li = 0 to nl - 1 do
        let q = lstate.(li) in
        final_l.(li) <- Bitset.mem d.Afsa.finals q;
        ann_l.(li) <- Chorev_formula.Simplify.simplify d.Afsa.ann.(q)
      done;
      let cls, ncls = initial_classes nl (Array.get final_l) (Array.get ann_l) in
      let pb = partition_make ~cap:nl nl cls ncls in
      (* Cords: one initial set per label in use (fl is label-sorted,
         so classes appear contiguously). *)
      let ccls = Array.make (max 1 tn) 0 in
      let ncc = ref 0 in
      let last_lab = ref (-1) in
      for t = 0 to tn - 1 do
        if fl.(t) <> !last_lab then begin
          last_lab := fl.(t);
          incr ncc
        end;
        ccls.(t) <- !ncc - 1
      done;
      let pc = partition_make ~cap:(max 1 tn) tn ccls !ncc in
      (* Valmari & Lehtinen's loop: each cord set splits state blocks
         by its tails, each state block (except the first) splits cords
         by its members' incoming transitions; every set created is
         processed exactly once, in creation order. *)
      let no_new = fun (_ : int) -> () in
      let bi = ref 1 and ci = ref 0 in
      while !ci < pc.nblocks do
        Budget.tick budget;
        for i = pc.first.(!ci) to pc.past.(!ci) - 1 do
          mark pb ft.(pc.elems.(i))
        done;
        split_touched pb no_new;
        incr ci;
        while !bi < pb.nblocks do
          Budget.tick budget;
          for i = pb.first.(!bi) to pb.past.(!bi) - 1 do
            let s = pb.elems.(i) in
            for j = inoff.(s) to inoff.(s + 1) - 1 do
              mark pc inidx.(j)
            done
          done;
          split_touched pc no_new;
          incr bi
        done
      done;
      (* Quotient + canonical BFS renumbering in one pass: every block
         is live and reachable from the start block, and each rep's
         out-transitions are already label-ascending. *)
      let nb = pb.nblocks in
      let rep b = pb.elems.(pb.first.(b)) in
      let sb = pb.blk.(lid.(start_d)) in
      let newid = Array.make nb (-1) in
      let bqueue = Queue.create () in
      newid.(sb) <- 0;
      let next = ref 1 in
      Queue.add sb bqueue;
      let edges = ref [] in
      let finals = ref [] in
      let ann = ref [] in
      while not (Queue.is_empty bqueue) do
        let b = Queue.pop bqueue in
        let id = newid.(b) in
        let r = rep b in
        if final_l.(r) then finals := id :: !finals;
        let f = ann_l.(r) in
        if not (F.equal f F.True) then ann := (id, f) :: !ann;
        for j = ooff.(r) to ooff.(r + 1) - 1 do
          let t = oidx.(j) in
          let tb = pb.blk.(fh.(t)) in
          if newid.(tb) < 0 then begin
            newid.(tb) <- !next;
            incr next;
            Queue.add tb bqueue
          end;
          edges := (id, d.Afsa.syms.(fl.(t)), newid.(tb)) :: !edges
        done
      done;
      Afsa.make ~alphabet:(Afsa.alphabet d) ~start:0 ~finals:!finals
        ~edges:!edges ~ann:!ann ()
    end
  end
