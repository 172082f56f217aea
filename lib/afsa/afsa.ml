(** Annotated Finite State Automata (aFSA), Definition 2 of the paper.

    An aFSA is a tuple [(Q, Σ, Δ, q0, F, QA)]: states, message alphabet,
    labeled transitions (possibly ε), a start state, final states, and a
    relation of states to logical formulas. A state's annotation
    expresses which outgoing messages are mandatory: a variable [v]
    evaluates to true iff a [v]-labeled transition leads to a state from
    which acceptance is possible (see {!Emptiness}). States without an
    entry in [QA] carry the default annotation [true].

    The tuple is stored as flat arrays over dense state indexes — a
    state's position in the ascending original ids. [make] builds them
    from its arguments, nothing writes them afterwards, and every
    kernel, walk and accessor reads them. *)

module F = Chorev_formula.Syntax
module ISet = Set.Make (Int)
module IMap = Map.Make (Int)

type t = {
  n : int;  (* state count *)
  state_ids : int array;  (* dense → original id, strictly ascending *)
  start : int;  (* dense index of the start state *)
  syms : Sym.t array;  (* the alphabet, ascending ([Sym.compare]) *)
  row_off : int array;  (* n+1: proper out-row extents per dense state *)
  row_sym : int array;  (* per edge: symbol id; rows sorted by (sym, tgt) *)
  row_tgt : int array;  (* per edge: dense target *)
  eps_off : int array;  (* n+1: ε out-row extents *)
  eps_tgt : int array;  (* per ε-edge: dense target, sorted within row *)
  finals : Bitset.t;
  ann : F.t array;  (* per dense state; [True] when not annotated *)
  ann_nontrivial : Bitset.t;  (* states with a non-[True] annotation *)
  mutable preds : (int array * int array) option;
      (* distinct-predecessor CSR (off, src), built on first backward
         walk *)
  mutable eps_cl_csr : (int array * int array) option;
      (* per-state ε-closure CSR (off, tgt), rows sorted ascending;
         built on first closure query *)
  mutable fp : string option;
      (* structural fingerprint (see {!Fingerprint}), computed on first
         request *)
}

(* ------------------------------------------------------------------ *)
(* Dense indexes                                                       *)
(* ------------------------------------------------------------------ *)

(* The index [i] in [0, n) with [cmp i = 0], for [cmp] ascending in
   [i]; [-1] when there is none. *)
let bsearch cmp n =
  let rec go lo hi =
    if lo > hi then -1
    else
      let mid = (lo + hi) / 2 in
      let c = cmp mid in
      if c = 0 then mid else if c < 0 then go (mid + 1) hi else go lo (mid - 1)
  in
  go 0 (n - 1)

(* Original id → dense index over the ascending [ids], [-1] when
   absent: an offset when the ids are contiguous (any renumbered
   automaton), a binary search otherwise. *)
let dense_in ids q =
  let n = Array.length ids in
  if n > 0 && ids.(n - 1) - ids.(0) = n - 1 then
    if q >= ids.(0) && q <= ids.(n - 1) then q - ids.(0) else -1
  else bsearch (fun i -> Int.compare ids.(i) q) n

let dense a q = dense_in a.state_ids q

let sym_id syms sym =
  bsearch (fun i -> Sym.compare syms.(i) sym) (Array.length syms)

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* The ascending distinct ids among [start] and the lists: a stamp pass
   over the id range when it is at most four times the number of
   occurrences, a sort otherwise. *)
let collect_ids ~start ~states ~finals ~edges ~ann =
  let lo = ref start and hi = ref start and cnt = ref 0 in
  let see q =
    incr cnt;
    if q < !lo then lo := q else if q > !hi then hi := q
  in
  let each f =
    f start;
    List.iter f states;
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

(* [a.(lo .. hi-1)] sorted with repeats dropped, moved down to start at
   [dst <= lo]; returns the end of the moved run. The row is
   insertion-sorted where it lies, which is quadratic in its length but
   copies nothing: a row is one state's out-edges, at most 8 entries on
   the perfbench workloads, where this beats a copying [Array.sort], and
   at most 64 in the bench sweep, where the two are on a par
   (DESIGN.md §12). *)
let sort_uniq_into (a : int array) ~dst lo hi =
  for i = lo + 1 to hi - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done;
  let w = ref dst in
  for k = lo to hi - 1 do
    if !w = dst || a.(!w - 1) <> a.(k) then begin
      a.(!w) <- a.(k);
      incr w
    end
  done;
  !w

(* Rows over [n] sources from the first [m] entries of [src] / [key]:
   the offsets and the keys, each row sorted without repeats. *)
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

(* [alphabet] as a symbol table: the list itself when it is strictly
   ascending, as every kernel's is, sorted without repeats otherwise. *)
let sorted_syms alphabet =
  let syms = Array.make (List.length alphabet) Sym.Eps in
  List.iteri (fun i l -> syms.(i) <- Sym.L l) alphabet;
  let k = Array.length syms and i = ref 1 in
  while !i < k && Sym.compare syms.(!i - 1) syms.(!i) < 0 do
    incr i
  done;
  if !i >= k then syms
  else Array.of_list (Sym.Set.elements (Sym.Set.of_list (Array.to_list syms)))

(* [syms] with the labels of [edges] it misses merged in. *)
let widen_syms syms edges =
  List.fold_left
    (fun set (_, sym, _) ->
      match sym with
      | Sym.L _ when sym_id syms sym < 0 -> Sym.Set.add sym set
      | _ -> set)
    Sym.Set.empty edges
  |> Array.fold_right Sym.Set.add syms
  |> Sym.Set.elements |> Array.of_list

(* The automaton over explicit parts: [states] lists ids to keep even
   when nothing else mentions them, and annotations are taken as given
   ([True] entries only contribute their state). The symbol table is
   the sorted [alphabet]; when there is none, or an edge label is
   missing from it, the edge labels are merged in first. *)
let build ~states ~alphabet ~start ~finals ~edges ~ann =
  let state_ids = collect_ids ~start ~states ~finals ~edges ~ann in
  let n = Array.length state_ids in
  let dense = dense_in state_ids in
  let neps =
    List.fold_left
      (fun c (_, sym, _) -> if Sym.is_eps sym then c + 1 else c)
      0 edges
  in
  let ne = List.length edges - neps in
  let src = Array.make ne 0 and key = Array.make ne 0 in
  let esrc = Array.make neps 0 and etgt = Array.make neps 0 in
  (* fills the rows' sources and keys against [syms]; false when an edge
     label is not in it *)
  let fill syms =
    let k = ref 0 and j = ref 0 and complete = ref true in
    List.iter
      (fun (s, sym, t) ->
        match sym with
        | Sym.Eps ->
            esrc.(!j) <- dense s;
            etgt.(!j) <- dense t;
            incr j
        | Sym.L _ ->
            let c = sym_id syms sym in
            if c < 0 then complete := false;
            src.(!k) <- dense s;
            key.(!k) <- (c * n) + dense t;
            incr k)
      edges;
    !complete
  in
  let syms = sorted_syms alphabet in
  let syms =
    if Array.length syms > 0 && fill syms then syms
    else
      let syms = widen_syms syms edges in
      ignore (fill syms);
      syms
  in
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
    preds = None;
    eps_cl_csr = None;
    fp = None;
  }

(** [make ~start ~finals ~edges ~ann ()] builds an aFSA. States are
    inferred from [start], [finals], [edges] and [ann]; the alphabet from
    the edge labels (ε excluded) unless [alphabet] is given explicitly
    (it is then unioned with the inferred one). Annotations equal to
    [True] are dropped; of several for one state, the last wins. *)
let make ?(alphabet = []) ~start ~finals ~edges ?(ann = []) () =
  build ~states:[] ~alphabet ~start ~finals ~edges
    ~ann:(List.map (fun (q, f) -> (q, Chorev_formula.Simplify.simplify f)) ann)

(** Convenience: edges given as [(s, "A#B#msg", t)] with ["" ] for ε. *)
let of_strings ?alphabet ~start ~finals ~edges ?(ann = []) () =
  let edges =
    List.map
      (fun (s, l, t) ->
        if String.equal l "" then (s, Sym.Eps, t)
        else (s, Sym.L (Label.of_string_exn l), t))
      edges
  in
  let alphabet = Option.map (List.map Label.of_string_exn) alphabet in
  make ?alphabet ~start ~finals ~edges ~ann ()

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let states a = Array.to_list a.state_ids
let num_states a = a.n

let alphabet a =
  Array.fold_right
    (fun sym acc -> match sym with Sym.L l -> l :: acc | Sym.Eps -> acc)
    a.syms []

let start a = a.state_ids.(a.start)

let finals a =
  List.rev (Bitset.fold (fun i acc -> a.state_ids.(i) :: acc) a.finals [])

let is_final a q =
  let i = dense a q in
  i >= 0 && Bitset.mem a.finals i

(** Annotation of a state ([True] when absent). *)
let annotation a q =
  let i = dense a q in
  if i < 0 then F.True else a.ann.(i)

let annotations a =
  List.rev
    (Bitset.fold
       (fun i acc -> (a.state_ids.(i), a.ann.(i)) :: acc)
       a.ann_nontrivial [])

let has_annotations a = Bitset.cardinal a.ann_nontrivial > 0

(* [f sym target acc] over dense [i]'s out-edges, folded from the last:
   a consed list comes out ε-edges first, then (symbol, target)
   ascending. *)
let fold_out a i f acc =
  let acc = ref acc in
  for e = a.row_off.(i + 1) - 1 downto a.row_off.(i) do
    acc := f a.syms.(a.row_sym.(e)) a.state_ids.(a.row_tgt.(e)) !acc
  done;
  for e = a.eps_off.(i + 1) - 1 downto a.eps_off.(i) do
    acc := f Sym.Eps a.state_ids.(a.eps_tgt.(e)) !acc
  done;
  !acc

(** Successors of [q] on symbol [sym]. *)
let step a q sym =
  let i = dense a q in
  let targets tgt lo hi =
    let acc = ref ISet.empty in
    for e = lo to hi - 1 do
      acc := ISet.add a.state_ids.(tgt.(e)) !acc
    done;
    !acc
  in
  if i < 0 then ISet.empty
  else
    match sym with
    | Sym.Eps -> targets a.eps_tgt a.eps_off.(i) a.eps_off.(i + 1)
    | Sym.L _ ->
        (* rows are sorted by symbol id, which orders as [Sym.compare]:
           [sym]'s run starts at the row's first entry not below it *)
        let row_end = a.row_off.(i + 1) in
        let sym_at e = a.syms.(a.row_sym.(e)) in
        let rec first lo hi =
          if lo >= hi then lo
          else
            let mid = (lo + hi) / 2 in
            if Sym.compare (sym_at mid) sym < 0 then first (mid + 1) hi
            else first lo mid
        in
        let lo = first a.row_off.(i) row_end in
        let hi = ref lo in
        while !hi < row_end && Sym.equal (sym_at !hi) sym do
          incr hi
        done;
        targets a.row_tgt lo !hi

(** All outgoing edges of [q] as [(symbol, target)] pairs. *)
let out_edges a q =
  let i = dense a q in
  if i < 0 then [] else fold_out a i (fun y t acc -> (y, t) :: acc) []

(** Outgoing proper (non-ε) symbols of [q]. *)
let out_symbols a q =
  let i = dense a q in
  if i < 0 then Label.Set.empty
  else
    fold_out a i
      (fun y _ acc ->
        match y with Sym.Eps -> acc | Sym.L l -> Label.Set.add l acc)
      Label.Set.empty

(** Every transition as a list [(source, symbol, target)]. *)
let edges a =
  let acc = ref [] in
  for i = a.n - 1 downto 0 do
    let s = a.state_ids.(i) in
    acc := fold_out a i (fun y t acc -> (s, y, t) :: acc) !acc
  done;
  !acc

let num_edges a = a.row_off.(a.n) + a.eps_off.(a.n)
let has_eps a = a.eps_off.(a.n) > 0

(** A deterministic aFSA has no ε-transition and at most one target per
    (state, symbol). *)
let is_deterministic a =
  (not (has_eps a))
  &&
  let ok = ref true in
  for i = 0 to a.n - 1 do
    for e = a.row_off.(i) + 1 to a.row_off.(i + 1) - 1 do
      if a.row_sym.(e) = a.row_sym.(e - 1) then ok := false
    done
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* Walks over the rows                                                 *)
(* ------------------------------------------------------------------ *)

(** Distinct-predecessor CSR over any symbol (proper and ε), built on
    first use: [(off, src)] with [src.(off.(q) .. off.(q+1)-1)] the
    dense predecessors of [q]. *)
let preds_csr a =
  match a.preds with
  | Some c -> c
  | None ->
      let n = a.n in
      let stamp = Array.make n (-1) in
      let cnt = Array.make (n + 1) 0 in
      let pass record =
        Array.fill stamp 0 n (-1);
        for s = 0 to n - 1 do
          for e = a.row_off.(s) to a.row_off.(s + 1) - 1 do
            let t = a.row_tgt.(e) in
            if stamp.(t) <> s then begin
              stamp.(t) <- s;
              record s t
            end
          done;
          for e = a.eps_off.(s) to a.eps_off.(s + 1) - 1 do
            let t = a.eps_tgt.(e) in
            if stamp.(t) <> s then begin
              stamp.(t) <- s;
              record s t
            end
          done
        done
      in
      pass (fun _ t -> cnt.(t + 1) <- cnt.(t + 1) + 1);
      for i = 0 to n - 1 do
        cnt.(i + 1) <- cnt.(i + 1) + cnt.(i)
      done;
      let off = Array.copy cnt in
      let src = Array.make (max 1 off.(n)) 0 in
      let cur = Array.copy off in
      pass (fun s t ->
          src.(cur.(t)) <- s;
          cur.(t) <- cur.(t) + 1);
      let c = (off, src) in
      a.preds <- Some c;
      c

(* Dense states reached from the dense [seeds] through [succs] (which
   calls its second argument on every neighbor), as a bitset. *)
let walk a seeds succs =
  let seen = Bitset.create a.n in
  let stack = Array.make a.n 0 in
  let sp = ref 0 in
  let visit q =
    if not (Bitset.mem seen q) then begin
      Bitset.add seen q;
      stack.(!sp) <- q;
      incr sp
    end
  in
  List.iter visit seeds;
  while !sp > 0 do
    decr sp;
    succs stack.(!sp) visit
  done;
  seen

(** Dense states reachable from the dense [seeds] over proper and ε
    out-rows. *)
let reach a seeds =
  walk a seeds (fun q visit ->
      for e = a.row_off.(q) to a.row_off.(q + 1) - 1 do
        visit a.row_tgt.(e)
      done;
      for e = a.eps_off.(q) to a.eps_off.(q + 1) - 1 do
        visit a.eps_tgt.(e)
      done)

(** Dense states that reach a final state, backward over
    {!preds_csr}. *)
let coreach a =
  let off, src = preds_csr a in
  walk a (Bitset.elements a.finals) (fun q visit ->
      for e = off.(q) to off.(q + 1) - 1 do
        visit src.(e)
      done)

(** Iterative Tarjan over the ε-rows with int stacks only — SCCs pop
    in reverse topological order, so each SCC's closure is its
    members unioned (stamp-deduplicated) with the already-finished
    closures of its successor SCCs. No per-state list or set. *)
let closure_csr n eps_off eps_tgt =
  let idx = Array.make n (-1) and low = Array.make n 0 in
  let on_st = Array.make (max 1 n) false in
  let st = Array.make (max 1 n) 0 in
  let sp = ref 0 in
  let scc_of = Array.make (max 1 n) (-1) in
  let nscc = ref 0 in
  let counter = ref 0 in
  (* explicit DFS frames: state + cursor into its ε-row *)
  let fstate = Array.make (max 1 n) 0
  and fedge = Array.make (max 1 n) 0 in
  let fsp = ref 0 in
  (* per-SCC closure slices in one growable int buffer *)
  let scc_start = Array.make (max 1 n) 0
  and scc_len = Array.make (max 1 n) 0 in
  let stamp = Array.make (max 1 n) (-1) in
  let cap = ref (max 16 n) in
  let buf = ref (Array.make !cap 0) in
  let len = ref 0 in
  let push x =
    if !len = !cap then begin
      let nb = Array.make (2 * !cap) 0 in
      Array.blit !buf 0 nb 0 !len;
      buf := nb;
      cap := 2 * !cap
    end;
    !buf.(!len) <- x;
    incr len
  in
  let push_node q =
    idx.(q) <- !counter;
    low.(q) <- !counter;
    incr counter;
    st.(!sp) <- q;
    incr sp;
    on_st.(q) <- true;
    fstate.(!fsp) <- q;
    fedge.(!fsp) <- eps_off.(q);
    incr fsp
  in
  for root = 0 to n - 1 do
    if idx.(root) < 0 then begin
      push_node root;
      while !fsp > 0 do
        let q = fstate.(!fsp - 1) in
        let e = fedge.(!fsp - 1) in
        if e < eps_off.(q + 1) then begin
          fedge.(!fsp - 1) <- e + 1;
          let t = eps_tgt.(e) in
          if idx.(t) < 0 then push_node t
          else if on_st.(t) && idx.(t) < low.(q) then low.(q) <- idx.(t)
        end
        else begin
          decr fsp;
          if !fsp > 0 then begin
            let parent = fstate.(!fsp - 1) in
            if low.(q) < low.(parent) then low.(parent) <- low.(q)
          end;
          if low.(q) = idx.(q) then begin
            (* pop the SCC rooted at [q]; members stay readable in
               [st.(!sp .. mhi-1)] after the pops *)
            let c = !nscc in
            incr nscc;
            let mhi = !sp in
            let continue_ = ref true in
            while !continue_ do
              decr sp;
              let m = st.(!sp) in
              on_st.(m) <- false;
              scc_of.(m) <- c;
              if m = q then continue_ := false
            done;
            let cstart = !len in
            for k = !sp to mhi - 1 do
              let m = st.(k) in
              if stamp.(m) <> c then begin
                stamp.(m) <- c;
                push m
              end
            done;
            for k = !sp to mhi - 1 do
              let m = st.(k) in
              for e = eps_off.(m) to eps_off.(m + 1) - 1 do
                let t = eps_tgt.(e) in
                let ct = scc_of.(t) in
                if ct <> c then
                  (* [t]'s SCC is already finished (Tarjan pops in
                     reverse topological order) *)
                  for j = scc_start.(ct) to scc_start.(ct) + scc_len.(ct) - 1
                  do
                    let x = !buf.(j) in
                    if stamp.(x) <> c then begin
                      stamp.(x) <- c;
                      push x
                    end
                  done
              done
            done;
            let sz = !len - cstart in
            let tmp = Array.sub !buf cstart sz in
            Array.sort (fun (a : int) b -> compare a b) tmp;
            Array.blit tmp 0 !buf cstart sz;
            scc_start.(c) <- cstart;
            scc_len.(c) <- sz
          end
        end
      done
    end
  done;
  let cl_off = Array.make (n + 1) 0 in
  for q = 0 to n - 1 do
    cl_off.(q + 1) <- cl_off.(q) + scc_len.(scc_of.(q))
  done;
  let cl_tgt = Array.make (max 1 cl_off.(n)) 0 in
  for q = 0 to n - 1 do
    let c = scc_of.(q) in
    Array.blit !buf scc_start.(c) cl_tgt cl_off.(q) scc_len.(c)
  done;
  (cl_off, cl_tgt)

(** {!closure_csr} of the automaton's ε-rows, built on first use. *)
let eps_closure_csr a =
  match a.eps_cl_csr with
  | Some c -> c
  | None ->
      let c = closure_csr a.n a.eps_off a.eps_tgt in
      a.eps_cl_csr <- Some c;
      c

(* ------------------------------------------------------------------ *)
(* Reachability and trimming                                           *)
(* ------------------------------------------------------------------ *)

let to_set a marks =
  Bitset.fold (fun i acc -> ISet.add a.state_ids.(i) acc) marks ISet.empty

(** States reachable from [q0] over any symbol; [{q0}] when [q0] is not
    a state. *)
let reachable_from a q0 =
  let i = dense a q0 in
  if i < 0 then ISet.singleton q0 else to_set a (reach a [ i ])

(** States from which some final state is reachable (co-reachable). *)
let coreachable a = to_set a (coreach a)

(* [a] restricted to the dense states in [keep] and the start; [a]
   itself when that drops no state. *)
let restrict a keep =
  Bitset.add keep a.start;
  if Bitset.cardinal keep = a.n then a
  else
    let mem q = Bitset.mem keep (dense a q) in
    build
      ~states:(List.filter mem (states a))
      ~alphabet:(alphabet a) ~start:(start a)
      ~finals:(List.filter mem (finals a))
      ~edges:(List.filter (fun (s, _, t) -> mem s && mem t) (edges a))
      ~ann:(List.filter (fun (q, _) -> mem q) (annotations a))

(** Remove unreachable states. *)
let trim_unreachable a = restrict a (reach a [ a.start ])

(** Remove states that are unreachable or cannot reach a final state
    (the start state is always kept). Preserves the (plain) language. *)
let trim a =
  let live = reach a [ a.start ] and co = coreach a in
  Bitset.iter
    (fun i -> if not (Bitset.mem co i) then Bitset.remove live i)
    live;
  restrict a live

let renumber a =
  let n = a.n in
  if start a = 0 && a.state_ids.(0) = 0 && a.state_ids.(n - 1) = n - 1 then
    (* already numbered 0..n-1 with the start first *)
    (a, Array.fold_left (fun m q -> IMap.add q q m) IMap.empty a.state_ids)
  else
    let map = ref IMap.empty in
    for i = n - 1 downto 0 do
      let j = if i = a.start then 0 else if i < a.start then i + 1 else i in
      map := IMap.add a.state_ids.(i) j !map
    done;
    let f q = IMap.find q !map in
    ( make ~alphabet:(alphabet a) ~start:0
        ~finals:(List.map f (finals a))
        ~edges:(List.map (fun (s, sym, t) -> (f s, sym, f t)) (edges a))
        ~ann:(List.map (fun (q, e) -> (f q, e)) (annotations a))
        (),
      !map )

(* ------------------------------------------------------------------ *)
(* Modification                                                        *)
(* ------------------------------------------------------------------ *)

(* [a] rebuilt from its parts with [edges] and [ann] replaced; no state
   is dropped. *)
let rebuild a ~edges ~ann =
  build ~states:(states a) ~alphabet:(alphabet a) ~start:(start a)
    ~finals:(finals a) ~edges ~ann

(** Bulk variant of {!add_edge}: one new automaton for the whole
    batch. *)
let add_edges a es =
  rebuild a ~edges:(List.rev_append es (edges a)) ~ann:(annotations a)

let add_edge a e = add_edges a [ e ]

(** The same automaton with empty lazy CSRs. The arrays are shared
    (they are never written). Hand one to each parallel task that reads
    a shared automaton so each domain builds its lazy CSRs locally. The
    fingerprint [fp] is kept: it describes the shared structure, and a
    cached digest is an immutable string safe to read from any
    domain. *)
let copy a = { a with preds = None; eps_cl_csr = None }

let set_annotation a q f =
  (* a [True] entry adds [q] as a state and is then dropped *)
  rebuild a ~edges:(edges a)
    ~ann:
      (List.filter (fun (p, _) -> p <> q) (annotations a)
      @ [ (q, Chorev_formula.Simplify.simplify f) ])

let clear_annotations a =
  {
    a with
    ann = Array.make a.n F.True;
    ann_nontrivial = Bitset.create a.n;
    fp = None;
  }

let set_finals a finals =
  let set = Bitset.create a.n in
  List.iter
    (fun q ->
      let i = dense a q in
      if i < 0 then invalid_arg "Afsa.set_finals: not a state";
      Bitset.add set i)
    finals;
  { a with finals = set; fp = None }

let widen_alphabet a labels =
  let extra = List.filter (fun l -> sym_id a.syms (Sym.L l) < 0) labels in
  if extra = [] then a
  else
    let syms =
      Array.of_list
        (Sym.Set.elements
           (Array.fold_right Sym.Set.add a.syms
              (Sym.Set.of_list (List.map Sym.label extra))))
    in
    let old = Array.map (fun sym -> sym_id syms sym) a.syms in
    {
      a with
      syms;
      row_sym = Array.map (fun c -> old.(c)) a.row_sym;
      fp = None;
    }

(** [a]'s fingerprint, computed by [compute] on first call and cached
    in [fp]. *)
let memo_fp a compute =
  match a.fp with
  | Some d -> d
  | None ->
      let d = compute a in
      a.fp <- Some d;
      d

(* ------------------------------------------------------------------ *)
(* Structural equality (same states/edges/finals/annotations)          *)
(* ------------------------------------------------------------------ *)

let structurally_equal a b =
  a.state_ids = b.state_ids
  && a.start = b.start
  && Array.length a.syms = Array.length b.syms
  && Array.for_all2 Sym.equal a.syms b.syms
  && Bitset.equal a.finals b.finals
  && a.row_off = b.row_off && a.row_sym = b.row_sym && a.row_tgt = b.row_tgt
  && a.eps_off = b.eps_off && a.eps_tgt = b.eps_tgt
  && Array.for_all2 F.equal a.ann b.ann
