(** Annotated Finite State Automata (aFSA), Definition 2 of the paper.

    An aFSA is a tuple [(Q, Σ, Δ, q0, F, QA)]: states, message alphabet,
    labeled transitions (possibly ε), a start state, final states, and a
    relation of states to logical formulas. A state's annotation
    expresses which outgoing messages are mandatory: a variable [v]
    evaluates to true iff a [v]-labeled transition leads to a state from
    which acceptance is possible (see {!Emptiness}). States without an
    entry in [QA] carry the default annotation [true]. *)

module F = Chorev_formula.Syntax
module ISet = Set.Make (Int)
module IMap = Map.Make (Int)

(* The packed (CSR) compilation of an automaton — flat int arrays the
   algebra's kernels (product, determinize, ε-elimination, emptiness,
   completion, minimization), reachability and trimming run over
   instead of the functional maps in [delta]. It is the one derived
   form of an automaton: defined before [t] so the lazy slot can hold
   one; the compiler itself ([Packed.get]) lives below. *)
module Packed0 = struct
  type t = {
    n : int;  (* dense state count *)
    state_ids : int array;  (* dense → original id, strictly ascending *)
    start : int;  (* dense index of the start state *)
    finals : Bitset.t;  (* over dense indexes *)
    syms : Sym.t array;  (* the alphabet, ascending ([Sym.Map] order) *)
    row_off : int array;  (* n+1: proper out-row extents per dense state *)
    row_sym : int array;  (* per edge: symbol id; rows sorted by (sym, tgt) *)
    row_tgt : int array;  (* per edge: dense target *)
    eps_off : int array;  (* n+1: ε out-row extents *)
    eps_tgt : int array;  (* per ε-edge: dense target, sorted within row *)
    ann : F.t array;  (* per dense state; [True] when absent from [ann] *)
    ann_nontrivial : Bitset.t;  (* states with a non-[True] annotation *)
    mutable preds : (int array * int array) option;
        (* distinct-predecessor CSR (off, src), built on first backward
           traversal *)
    mutable eps_cl_csr : (int array * int array) option;
        (* per-state ε-closure CSR (off, tgt) over dense indexes, rows
           sorted ascending; built on first closure query *)
  }
end

type packed = Packed0.t

type t = {
  states : ISet.t;
  alphabet : Label.Set.t;
  delta : ISet.t Sym.Map.t IMap.t; (* state -> symbol -> target set *)
  start : int;
  finals : ISet.t;
  ann : F.t IMap.t; (* absent entry = True *)
  mutable pack : packed option;
      (* the lazily-compiled pack, never set by hand: purely derived, so
         every constructor and modifier resets it and [delta] stays the
         single source of truth *)
  mutable fp : string option;
      (* cached structural fingerprint (see {!Fingerprint}); like [pack]
         purely derived, so every structural modifier resets it — but
         [copy] keeps it, the structure being shared *)
}

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let empty_delta = IMap.empty

let add_edge_delta delta (s, sym, t) =
  let row = Option.value ~default:Sym.Map.empty (IMap.find_opt s delta) in
  let tgts = Option.value ~default:ISet.empty (Sym.Map.find_opt sym row) in
  IMap.add s (Sym.Map.add sym (ISet.add t tgts) row) delta

(** [make ~start ~finals ~edges ~ann ()] builds an aFSA. States are
    inferred from [start], [finals], [edges] and [ann]; the alphabet from
    the edge labels (ε excluded) unless [alphabet] is given explicitly
    (it is then unioned with the inferred one). Annotations equal to
    [True] are dropped. *)
let make ?(alphabet = []) ~start ~finals ~edges ?(ann = []) () =
  let states =
    List.fold_left
      (fun acc (s, _, t) -> ISet.add s (ISet.add t acc))
      (ISet.add start (ISet.of_list finals))
      edges
  in
  let states =
    List.fold_left (fun acc (q, _) -> ISet.add q acc) states ann
  in
  let alpha =
    List.fold_left
      (fun acc (_, sym, _) ->
        match sym with Sym.Eps -> acc | Sym.L l -> Label.Set.add l acc)
      (Label.Set.of_list alphabet) edges
  in
  let delta = List.fold_left add_edge_delta empty_delta edges in
  let ann =
    List.fold_left
      (fun acc (q, f) ->
        let f = Chorev_formula.Simplify.simplify f in
        if F.equal f F.True then acc else IMap.add q f acc)
      IMap.empty ann
  in
  {
    states;
    alphabet = alpha;
    delta;
    start;
    finals = ISet.of_list finals;
    ann;
    pack = None;
    fp = None;
  }

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

let states a = ISet.elements a.states
let num_states a = ISet.cardinal a.states
let alphabet a = Label.Set.elements a.alphabet
let start a = a.start
let finals a = ISet.elements a.finals
let is_final a q = ISet.mem q a.finals

(** Annotation of a state ([True] when absent). *)
let annotation a q = Option.value ~default:F.True (IMap.find_opt q a.ann)

let annotations a = IMap.bindings a.ann
let has_annotations a = not (IMap.is_empty a.ann)

(** Successors of [q] on symbol [sym]. *)
let step a q sym =
  match IMap.find_opt q a.delta with
  | None -> ISet.empty
  | Some row -> Option.value ~default:ISet.empty (Sym.Map.find_opt sym row)

(** All outgoing edges of [q] as [(symbol, target)] pairs. *)
let out_edges a q =
  match IMap.find_opt q a.delta with
  | None -> []
  | Some row ->
      Sym.Map.fold
        (fun sym tgts acc ->
          ISet.fold (fun t acc -> (sym, t) :: acc) tgts acc)
        row []
      |> List.rev

(** Outgoing proper (non-ε) symbols of [q]. *)
let out_symbols a q =
  match IMap.find_opt q a.delta with
  | None -> Label.Set.empty
  | Some row ->
      Sym.Map.fold
        (fun sym _ acc ->
          match sym with Sym.Eps -> acc | Sym.L l -> Label.Set.add l acc)
        row Label.Set.empty

(** Every transition as a list [(source, symbol, target)]. *)
let edges a =
  IMap.fold
    (fun s row acc ->
      Sym.Map.fold
        (fun sym tgts acc ->
          ISet.fold (fun t acc -> (s, sym, t) :: acc) tgts acc)
        row acc)
    a.delta []
  |> List.rev

let num_edges a = List.length (edges a)

let has_eps a =
  IMap.exists (fun _ row -> Sym.Map.mem Sym.Eps row) a.delta

(** A deterministic aFSA has no ε-transition and at most one target per
    (state, symbol). *)
let is_deterministic a =
  IMap.for_all
    (fun _ row ->
      Sym.Map.for_all
        (fun sym tgts ->
          (not (Sym.equal sym Sym.Eps)) && ISet.cardinal tgts <= 1)
        row)
    a.delta

(* ------------------------------------------------------------------ *)
(* Packed (CSR) compilation                                            *)
(* ------------------------------------------------------------------ *)

module Packed = struct
  include Packed0

  let c_builds = Chorev_obs.Metrics.counter "afsa.pack.builds"

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
     absent. Lookups avoid hashing: an offset when the ids are
     contiguous (any renumbered automaton), a binary search otherwise. *)
  let dense_in ids q =
    let n = Array.length ids in
    if n > 0 && ids.(n - 1) - ids.(0) = n - 1 then
      if q >= ids.(0) && q <= ids.(n - 1) then q - ids.(0) else -1
    else bsearch (fun i -> Int.compare ids.(i) q) n

  let dense p q = dense_in p.state_ids q

  let build a =
    Chorev_obs.Metrics.incr c_builds;
    let state_ids = Array.of_list (ISet.elements a.states) in
    let n = Array.length state_ids in
    (* every automaton that is walked gets packed, most of them
       figure-sized: state lookups go through [dense_in], symbol ids
       binary-search [syms] *)
    let dense = dense_in state_ids in
    (* the alphabet covers every edge label (all modifiers keep it so),
       and [Label.Set] ascends in [Sym.Map]'s order *)
    let syms =
      Array.of_list (List.map Sym.label (Label.Set.elements a.alphabet))
    in
    let sym_id sym =
      bsearch (fun i -> Sym.compare syms.(i) sym) (Array.length syms)
    in
    (* degree pass *)
    let deg = Array.make (n + 1) 0 and edeg = Array.make (n + 1) 0 in
    IMap.iter
      (fun s row ->
        let i = dense s in
        Sym.Map.iter
          (fun sym tgts ->
            let c = ISet.cardinal tgts in
            match sym with
            | Sym.Eps -> edeg.(i) <- edeg.(i) + c
            | Sym.L _ -> deg.(i) <- deg.(i) + c)
          row)
      a.delta;
    let row_off = Array.make (n + 1) 0 and eps_off = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      row_off.(i + 1) <- row_off.(i) + deg.(i);
      eps_off.(i + 1) <- eps_off.(i) + edeg.(i)
    done;
    let ne = row_off.(n) and neps = eps_off.(n) in
    let row_sym = Array.make (max 1 ne) 0
    and row_tgt = Array.make (max 1 ne) 0
    and eps_tgt = Array.make (max 1 neps) 0 in
    (* fill pass: [IMap] / [Sym.Map] / [ISet] iterate ascending, so each
       proper row comes out sorted by (symbol id, dense target) and each
       ε-row by dense target — the order every packed kernel relies
       on *)
    let rcur = Array.copy row_off and ecur = Array.copy eps_off in
    IMap.iter
      (fun s row ->
        let i = dense s in
        Sym.Map.iter
          (fun sym tgts ->
            match sym with
            | Sym.Eps ->
                ISet.iter
                  (fun t ->
                    eps_tgt.(ecur.(i)) <- dense t;
                    ecur.(i) <- ecur.(i) + 1)
                  tgts
            | Sym.L _ ->
                let sid = sym_id sym in
                ISet.iter
                  (fun t ->
                    row_sym.(rcur.(i)) <- sid;
                    row_tgt.(rcur.(i)) <- dense t;
                    rcur.(i) <- rcur.(i) + 1)
                  tgts)
          row)
      a.delta;
    let finals = Bitset.create n in
    ISet.iter (fun q -> Bitset.add finals (dense q)) a.finals;
    let ann = Array.make (max 1 n) F.True in
    let ann_nontrivial = Bitset.create n in
    IMap.iter
      (fun q f ->
        let i = dense q in
        ann.(i) <- f;
        Bitset.add ann_nontrivial i)
      a.ann;
    {
      n;
      state_ids;
      start = dense a.start;
      finals;
      syms;
      row_off;
      row_sym;
      row_tgt;
      eps_off;
      eps_tgt;
      ann;
      ann_nontrivial;
      preds = None;
      eps_cl_csr = None;
    }

  (** The packed form of [a], compiled once and cached on the lazy
      slot — every structural modifier already invalidates it. *)
  let get a =
    match a.pack with
    | Some p -> p
    | None ->
        let p = build a in
        a.pack <- Some p;
        p

  (** Distinct-predecessor CSR over any symbol (proper and ε), built on
      first use: [(off, src)] with [src.(off.(q) .. off.(q+1)-1)] the
      dense predecessors of [q]. *)
  let preds_csr p =
    match p.preds with
    | Some c -> c
    | None ->
        let n = p.n in
        let stamp = Array.make n (-1) in
        let cnt = Array.make (n + 1) 0 in
        let pass record =
          Array.fill stamp 0 n (-1);
          for s = 0 to n - 1 do
            for e = p.row_off.(s) to p.row_off.(s + 1) - 1 do
              let t = p.row_tgt.(e) in
              if stamp.(t) <> s then begin
                stamp.(t) <- s;
                record s t
              end
            done;
            for e = p.eps_off.(s) to p.eps_off.(s + 1) - 1 do
              let t = p.eps_tgt.(e) in
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
        p.preds <- Some c;
        c

  (* Dense states reached from the dense [seeds] through [succs] (which
     calls its second argument on every neighbor), as a bitset. *)
  let walk p seeds succs =
    let seen = Bitset.create p.n in
    let stack = Array.make (max 1 p.n) 0 in
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
  let reach p seeds =
    walk p seeds (fun q visit ->
        for e = p.row_off.(q) to p.row_off.(q + 1) - 1 do
          visit p.row_tgt.(e)
        done;
        for e = p.eps_off.(q) to p.eps_off.(q + 1) - 1 do
          visit p.eps_tgt.(e)
        done)

  (** Dense states that reach a final state, backward over
      {!preds_csr}. *)
  let coreach p =
    let off, src = preds_csr p in
    walk p (Bitset.elements p.finals) (fun q visit ->
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

  (** {!closure_csr} of the pack's ε-rows, cached on the pack. *)
  let eps_closure_csr p =
    match p.eps_cl_csr with
    | Some c -> c
    | None ->
        let c = closure_csr p.n p.eps_off p.eps_tgt in
        p.eps_cl_csr <- Some c;
        c
end

(* ------------------------------------------------------------------ *)
(* Reachability and trimming                                           *)
(* ------------------------------------------------------------------ *)

let to_set (p : Packed.t) marks =
  Bitset.fold (fun i acc -> ISet.add p.state_ids.(i) acc) marks ISet.empty

(** States reachable from [q0] over any symbol; [{q0}] when [q0] is not
    a state. *)
let reachable_from a q0 =
  let p = Packed.get a in
  let i = Packed.dense p q0 in
  if i < 0 then ISet.singleton q0 else to_set p (Packed.reach p [ i ])

(** States from which some final state is reachable (co-reachable). *)
let coreachable a =
  let p = Packed.get a in
  to_set p (Packed.coreach p)

(* [a] restricted to [keep] (and the start); [a] itself, pack and all,
   when that drops no state. *)
let restrict_states a keep =
  let keep = ISet.add a.start keep in
  if ISet.subset a.states keep then a
  else
    let delta =
    IMap.filter_map
      (fun s row ->
        if not (ISet.mem s keep) then None
        else
          let row =
            Sym.Map.filter_map
              (fun _ tgts ->
                let tgts = ISet.inter tgts keep in
                if ISet.is_empty tgts then None else Some tgts)
              row
          in
          if Sym.Map.is_empty row then None else Some row)
      a.delta
  in
  {
    a with
    states = ISet.inter a.states keep;
    delta;
    finals = ISet.inter a.finals keep;
    ann = IMap.filter (fun q _ -> ISet.mem q keep) a.ann;
    pack = None;
    fp = None;
  }

(** Remove unreachable states. *)
let trim_unreachable a =
  let p = Packed.get a in
  restrict_states a (to_set p (Packed.reach p [ p.start ]))

(** Remove states that are unreachable or cannot reach a final state
    (the start state is always kept). Preserves the (plain) language. *)
let trim a =
  let p = Packed.get a in
  let co = Packed.coreach p in
  restrict_states a
    (Bitset.fold
       (fun i acc ->
         if Bitset.mem co i then ISet.add p.state_ids.(i) acc else acc)
       (Packed.reach p [ p.start ])
       ISet.empty)

let renumber a =
  let order =
    a.start :: List.filter (fun q -> q <> a.start) (ISet.elements a.states)
  in
  let identity =
    (* already numbered 0..n-1 in [order]'s order: rebuilding would
       produce a structurally identical automaton while throwing away
       its pack *)
    a.start = 0
    && (ISet.is_empty a.states
       || (ISet.min_elt a.states = 0
          && ISet.max_elt a.states = ISet.cardinal a.states - 1))
  in
  if identity then
    (a, ISet.fold (fun q m -> IMap.add q q m) a.states IMap.empty)
  else
  let map =
    List.fold_left
      (fun (i, m) q -> (i + 1, IMap.add q i m))
      (0, IMap.empty) order
    |> snd
  in
  let f q = IMap.find q map in
  let edges' = List.map (fun (s, sym, t) -> (f s, sym, f t)) (edges a) in
  ( make
      ~alphabet:(Label.Set.elements a.alphabet)
      ~start:(f a.start)
      ~finals:(List.map f (ISet.elements a.finals))
      ~edges:edges'
      ~ann:(List.map (fun (q, e) -> (f q, e)) (IMap.bindings a.ann))
      (),
    map )

(* ------------------------------------------------------------------ *)
(* Modification                                                        *)
(* ------------------------------------------------------------------ *)

let add_edge a (s, sym, t) =
  let alphabet =
    match sym with
    | Sym.Eps -> a.alphabet
    | Sym.L l -> Label.Set.add l a.alphabet
  in
  {
    a with
    states = ISet.add s (ISet.add t a.states);
    alphabet;
    delta = add_edge_delta a.delta (s, sym, t);
    pack = None;
    fp = None;
  }

(** Bulk variant of {!add_edge}: one record (and one pack
    invalidation) for the whole batch. *)
let add_edges a es =
  let states, alphabet =
    List.fold_left
      (fun (states, alpha) (s, sym, t) ->
        ( ISet.add s (ISet.add t states),
          match sym with
          | Sym.Eps -> alpha
          | Sym.L l -> Label.Set.add l alpha ))
      (a.states, a.alphabet) es
  in
  {
    a with
    states;
    alphabet;
    delta = List.fold_left add_edge_delta a.delta es;
    pack = None;
    fp = None;
  }

(** A handle on the same automaton with a private pack slot. The
    persistent fields are shared (they are immutable); only [pack] is
    reset. Hand one to each parallel task that reads a shared automaton
    so each domain builds its pack, and the pack's lazy CSRs, locally.
    The fingerprint [fp] is kept: it describes the shared structure, and
    a cached digest is an immutable string safe to read from any
    domain. *)
let copy a = { a with pack = None }

let set_annotation a q f =
  let f = Chorev_formula.Simplify.simplify f in
  let ann =
    if F.equal f F.True then IMap.remove q a.ann else IMap.add q f a.ann
  in
  { a with ann; states = ISet.add q a.states; pack = None; fp = None }

let clear_annotations a = { a with ann = IMap.empty; pack = None; fp = None }

let set_finals a finals =
  { a with finals = ISet.of_list finals; pack = None; fp = None }

let widen_alphabet a labels =
  {
    a with
    alphabet = Label.Set.union a.alphabet (Label.Set.of_list labels);
    pack = None;
    fp = None;
  }

(* ------------------------------------------------------------------ *)
(* Structural equality (same states/edges/finals/annotations)          *)
(* ------------------------------------------------------------------ *)

let structurally_equal a b =
  ISet.equal a.states b.states
  && Label.Set.equal a.alphabet b.alphabet
  && a.start = b.start
  && ISet.equal a.finals b.finals
  && IMap.equal ISet.equal
       (IMap.map (fun row -> Sym.Map.fold (fun _ t acc -> ISet.union t acc) row ISet.empty) a.delta)
       (IMap.map (fun row -> Sym.Map.fold (fun _ t acc -> ISet.union t acc) row ISet.empty) b.delta)
  && List.equal
       (fun (s1, y1, t1) (s2, y2, t2) -> s1 = s2 && Sym.equal y1 y2 && t1 = t2)
       (List.sort compare (edges a))
       (List.sort compare (edges b))
  && IMap.equal F.equal a.ann b.ann
