(** Ablation variants of the semantic decisions documented in
    DESIGN.md. Each function here is a *deliberately naive* alternative
    kept so tests and benchmarks can demonstrate why the main
    implementation makes the choice it makes. None of these are part of
    the recommended API. *)

module F = Chorev_formula.Syntax
module ISet = Afsa.ISet

(** Least-fixpoint annotated emptiness: [sat] grows from ∅ instead of
    shrinking from Q. Sound for acyclic protocols but wrongly rejects
    loops whose annotations support each other mutually (the buyer's
    tracking loop of Fig. 6): with this semantics, buyer ↔ accounting
    of the paper's scenario comes out INCONSISTENT. *)
let analyze_least_fixpoint a =
  let holds sat q =
    let assign v =
      List.exists
        (fun (sym, t) ->
          match sym with
          | Sym.Eps -> false
          | Sym.L l -> String.equal (Label.to_string l) v && ISet.mem t sat)
        (Afsa.out_edges a q)
    in
    let ann_ok = Chorev_formula.Eval.eval ~assign (Afsa.annotation a q) in
    let continues =
      Afsa.is_final a q
      || List.exists (fun (_, t) -> ISet.mem t sat) (Afsa.out_edges a q)
    in
    ann_ok && continues
  in
  let rec fix sat =
    let sat' =
      List.fold_left
        (fun acc q -> if holds sat q then ISet.add q acc else acc)
        ISet.empty (Afsa.states a)
    in
    if ISet.equal sat' sat then sat else fix sat'
  in
  let sat = fix ISet.empty in
  ISet.mem (Afsa.start a) sat

let is_empty_least_fixpoint a = not (analyze_least_fixpoint a)

(** Minimization that ignores annotations in the initial partition.
    Merges states with different mandatory obligations, silently
    weakening or strengthening the protocol: with this variant the
    minimized buyer public process of Fig. 6 can lose the distinction
    that makes Fig. 16's subtractive verdict come out empty. *)
let minimize_ignoring_annotations a =
  Minimize.minimize (Afsa.clear_annotations a)

(** Views that substitute hidden message variables with [false] instead
    of [true]: hidden obligations would then be unsatisfiable from the
    observer's standpoint, and every view containing a multi-party
    obligation would be empty. *)
let tau_hidden_false ~observer a =
  let keep l = Label.involves observer l in
  let edges =
    List.map
      (fun (s, sym, t) ->
        match sym with
        | Sym.Eps -> (s, Sym.Eps, t)
        | Sym.L l -> if keep l then (s, sym, t) else (s, Sym.Eps, t))
      (Afsa.edges a)
  in
  let visible v =
    match Label.of_string v with Ok l -> keep l | Error _ -> false
  in
  let ann =
    List.map
      (fun (q, f) ->
        ( q,
          Chorev_formula.Simplify.simplify
            (Chorev_formula.Eval.restrict_to ~keep:visible ~default:false f) ))
      (Afsa.annotations a)
  in
  Afsa.make
    ~alphabet:(List.filter keep (Afsa.alphabet a))
    ~start:(Afsa.start a) ~finals:(Afsa.finals a) ~edges ~ann ()
  |> Epsilon.eliminate

(* ------------------------------------------------------------------ *)
(* Seed reference implementations                                      *)
(* ------------------------------------------------------------------ *)

(* The algebra was rewritten over indexed worklist products and a
   shared predecessor index; the functions below are the original
   recursive, Map-based implementations kept verbatim so property
   tests (test_perf_equiv) can check that the optimized operations
   compute the same annotated languages and the emptiness fixpoint
   converges in the same number of iterations. *)

(* The seed's product: recursive pair-space exploration, sweeping the
   whole product alphabet at every state. Overflows the stack on very
   deep products — which is why the main implementation is a worklist. *)
let product_ref (spec : Product.spec) a b =
  let next = ref 0 in
  let module PMap = Map.Make (struct
    type t = int * int

    let compare = compare
  end) in
  let ids = ref PMap.empty in
  let edges = ref [] in
  let finals = ref [] in
  let anns = ref [] in
  let alpha = Label.Set.of_list spec.alphabet in
  let rec visit ((q1, q2) as p) =
    match PMap.find_opt p !ids with
    | Some id -> id
    | None ->
        let id = !next in
        incr next;
        ids := PMap.add p id !ids;
        if spec.final p then finals := id :: !finals;
        let ann =
          Chorev_formula.Simplify.simplify
            (spec.combine_ann (Afsa.annotation a q1) (Afsa.annotation b q2))
        in
        if not (F.equal ann F.True) then anns := (id, ann) :: !anns;
        Label.Set.iter
          (fun l ->
            let t1s = Afsa.step a q1 (Sym.L l) in
            let t2s = Afsa.step b q2 (Sym.L l) in
            ISet.iter
              (fun t1 ->
                ISet.iter
                  (fun t2 ->
                    let tid = visit (t1, t2) in
                    edges := (id, Sym.L l, tid) :: !edges)
                  t2s)
              t1s)
          alpha;
        ISet.iter
          (fun t1 ->
            let tid = visit (t1, q2) in
            edges := (id, Sym.Eps, tid) :: !edges)
          (Afsa.step a q1 Sym.Eps);
        ISet.iter
          (fun t2 ->
            let tid = visit (q1, t2) in
            edges := (id, Sym.Eps, tid) :: !edges)
          (Afsa.step b q2 Sym.Eps);
        id
  in
  let s0 = visit (Afsa.start a, Afsa.start b) in
  Afsa.make ~alphabet:spec.alphabet ~start:s0 ~finals:!finals ~edges:!edges
    ~ann:!anns ()

let intersect_ref a b =
  let spec =
    {
      Product.alphabet = Ops.inter_alphabet a b;
      final = (fun (q1, q2) -> Afsa.is_final a q1 && Afsa.is_final b q2);
      combine_ann = F.and_;
    }
  in
  product_ref spec a b

(* The seed's difference: materialize the complement of [b] (completed
   over the union alphabet, |Q|·|Σ| sink edges) and intersect. *)
let difference_ref a b =
  let over = Ops.union_alphabet a b in
  let cb = Ops.complement ~over b in
  let spec =
    {
      Product.alphabet = over;
      final = (fun (q1, q2) -> Afsa.is_final a q1 && Afsa.is_final cb q2);
      combine_ann = (fun ann_a _ -> ann_a);
    }
  in
  product_ref spec a cb |> Afsa.trim

(* The seed's union: materialize both completions, full total product,
   trim afterwards. *)
let union_ref a b =
  let over = Ops.union_alphabet a b in
  let da = Complete.complete ~over (Determinize.determinize a) in
  let db = Complete.complete ~over (Determinize.determinize b) in
  let spec =
    {
      Product.alphabet = over;
      final = (fun (q1, q2) -> Afsa.is_final da q1 || Afsa.is_final db q2);
      combine_ann = F.and_;
    }
  in
  product_ref spec da db |> Afsa.trim

(* The seed's emptiness fixpoint: rebuilds the reverse-edge table from
   the full edge list on every iteration. Returns the sat set, whether
   the automaton is non-empty, and the number of fixpoint iterations
   (same convention as {!Emptiness.analyze}: ≥ 1, counting the final
   stable evaluation). *)
let analyze_ref a =
  let reach_final_through sat =
    let rev = Hashtbl.create 16 in
    List.iter
      (fun (s, _, t) ->
        if ISet.mem s sat && ISet.mem t sat then
          Hashtbl.replace rev t
            (s :: Option.value ~default:[] (Hashtbl.find_opt rev t)))
      (Afsa.edges a);
    let seeds = List.filter (fun f -> ISet.mem f sat) (Afsa.finals a) in
    let rec go seen = function
      | [] -> seen
      | q :: rest ->
          if ISet.mem q seen then go seen rest
          else
            let preds = Option.value ~default:[] (Hashtbl.find_opt rev q) in
            go (ISet.add q seen) (preds @ rest)
    in
    go ISet.empty seeds
  in
  let holds sat q =
    let assign v =
      List.exists
        (fun (sym, t) ->
          match sym with
          | Sym.Eps -> false
          | Sym.L l -> String.equal (Label.to_string l) v && ISet.mem t sat)
        (Afsa.out_edges a q)
    in
    Chorev_formula.Eval.eval ~assign (Afsa.annotation a q)
  in
  let rec fix n sat =
    let reach = reach_final_through sat in
    let sat' = ISet.filter (fun q -> ISet.mem q reach && holds sat q) sat in
    if ISet.equal sat' sat then (sat, n) else fix (n + 1) sat'
  in
  let sat, iterations = fix 1 (ISet.of_list (Afsa.states a)) in
  (sat, ISet.mem (Afsa.start a) sat, iterations)

(* The map-shaped ε-elimination and subset construction that ran next
   to the array kernels until those became the only implementation,
   kept as their oracles: same budget ticks (one per state, one per
   discovered subset) in the same order as {!Epsilon} and
   {!Determinize}. Their closures and rows come from the accessors
   alone — closures by a naive walk over {!Afsa.step}, rows from
   {!Afsa.out_edges} — never from the closure CSR or the rows the
   kernels walk. *)

let resolve_budget = function
  | Some b -> b
  | None -> Chorev_guard.Budget.ambient ()

let eps_walk a q =
  let rec go seen = function
    | [] -> seen
    | q :: rest ->
        if ISet.mem q seen then go seen rest
        else go (ISet.add q seen) (ISet.elements (Afsa.step a q Sym.Eps) @ rest)
  in
  go ISet.empty [ q ]

let eliminate_ref ?budget a =
  let budget = resolve_budget budget in
  if not (Afsa.has_eps a) then a
  else
    let states = Afsa.states a in
    let closures = Hashtbl.create 16 in
    List.iter (fun q -> Hashtbl.replace closures q (eps_walk a q)) states;
    let closure_of q = Hashtbl.find closures q in
    let edges =
      List.concat_map
        (fun q ->
          Chorev_guard.Budget.tick budget;
          ISet.fold
            (fun p acc ->
              List.fold_left
                (fun acc (sym, t) ->
                  match sym with Sym.Eps -> acc | Sym.L _ -> (q, sym, t) :: acc)
                acc (Afsa.out_edges a p))
            (closure_of q) [])
        states
    in
    let finals =
      List.filter (fun q -> ISet.exists (Afsa.is_final a) (closure_of q)) states
    in
    let ann =
      List.filter_map
        (fun q ->
          let f =
            ISet.fold
              (fun p acc -> F.and_ (Afsa.annotation a p) acc)
              (closure_of q) F.True
          in
          let f = Chorev_formula.Simplify.simplify f in
          if F.equal f F.True then None else Some (q, f))
        states
    in
    Afsa.make ~alphabet:(Afsa.alphabet a) ~start:(Afsa.start a) ~finals ~edges
      ~ann ()
    |> Afsa.trim_unreachable

module SMap = Map.Make (ISet)

let determinize_ref ?budget a =
  let budget = resolve_budget budget in
  let a = eliminate_ref ~budget a in
  if Afsa.is_deterministic a then fst (Afsa.renumber a)
  else
    let start_set = ISet.singleton (Afsa.start a) in
    let next_id = ref 0 in
    let ids = ref SMap.empty in
    let edges = ref [] in
    let finals = ref [] in
    let anns = ref [] in
    let rec visit set =
      match SMap.find_opt set !ids with
      | Some id -> id
      | None ->
          (* one fuel unit per discovered subset — the exponential axis *)
          Chorev_guard.Budget.tick budget;
          let id = !next_id in
          incr next_id;
          ids := SMap.add set id !ids;
          if ISet.exists (Afsa.is_final a) set then finals := id :: !finals;
          let ann =
            ISet.fold (fun q acc -> F.or_ (Afsa.annotation a q) acc) set F.False
          in
          let ann = Chorev_formula.Simplify.simplify ann in
          if not (F.equal ann F.True) then anns := (id, ann) :: !anns;
          (* group successors by symbol *)
          let by_sym =
            ISet.fold
              (fun q acc ->
                List.fold_left
                  (fun acc (sym, t) ->
                    match sym with
                    | Sym.Eps -> acc
                    | Sym.L _ ->
                        let cur =
                          Option.value ~default:ISet.empty
                            (Sym.Map.find_opt sym acc)
                        in
                        Sym.Map.add sym (ISet.add t cur) acc)
                  acc (Afsa.out_edges a q))
              set Sym.Map.empty
          in
          Sym.Map.iter
            (fun sym tgt_set ->
              let tid = visit tgt_set in
              edges := (id, sym, tid) :: !edges)
            by_sym;
          id
    in
    let s0 = visit start_set in
    Afsa.make ~alphabet:(Afsa.alphabet a) ~start:s0 ~finals:!finals
      ~edges:!edges ~ann:!anns ()

(* The pre-PR3 minimization: list/Hashtbl Hopcroft (linked-list
   predecessor arrays, List.filter splits, string class keys), the
   unconditional determinize-and-renumber front end, and the separate
   trim + canonical-renumber back end. Kept verbatim (minus metrics) as
   the differential oracle for the refinable-partition rewrite. *)

let hopcroft_ref ~n ~k ~succ ~init_class =
  (* predecessor lists per symbol *)
  let pred = Array.init k (fun _ -> Array.make n []) in
  for c = 0 to k - 1 do
    for q = 0 to n - 1 do
      let t = succ.(c).(q) in
      pred.(c).(t) <- q :: pred.(c).(t)
    done
  done;
  (* blocks *)
  let block = Array.make n 0 in
  let members : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  let next_block = ref 0 in
  let by_class = Hashtbl.create 16 in
  for q = 0 to n - 1 do
    let id =
      match Hashtbl.find_opt by_class init_class.(q) with
      | Some id -> id
      | None ->
          let id = !next_block in
          incr next_block;
          Hashtbl.add by_class init_class.(q) id;
          id
    in
    block.(q) <- id;
    Hashtbl.replace members id
      (q :: Option.value ~default:[] (Hashtbl.find_opt members id))
  done;
  (* worklist of (block, symbol) *)
  let w = Queue.create () in
  let in_w = Hashtbl.create 64 in
  let push b c =
    if not (Hashtbl.mem in_w (b, c)) then begin
      Hashtbl.add in_w (b, c) ();
      Queue.add (b, c) w
    end
  in
  Hashtbl.iter (fun b _ -> for c = 0 to k - 1 do push b c done) members;
  while not (Queue.is_empty w) do
    let a, c = Queue.pop w in
    Hashtbl.remove in_w (a, c);
    (* X = c-preimage of block a *)
    let x =
      List.concat_map
        (fun t -> pred.(c).(t))
        (Option.value ~default:[] (Hashtbl.find_opt members a))
    in
    (* group X by current block *)
    let touched = Hashtbl.create 8 in
    List.iter
      (fun q ->
        Hashtbl.replace touched block.(q)
          (q :: Option.value ~default:[] (Hashtbl.find_opt touched block.(q))))
      x;
    Hashtbl.iter
      (fun y xs ->
        let xs = List.sort_uniq compare xs in
        let y_members = Hashtbl.find members y in
        let y_size = List.length y_members in
        let x_size = List.length xs in
        if x_size > 0 && x_size < y_size then begin
          (* split y into z (= xs) and the rest *)
          let z = !next_block in
          incr next_block;
          let in_xs = Hashtbl.create x_size in
          List.iter (fun q -> Hashtbl.replace in_xs q ()) xs;
          let rest =
            List.filter (fun q -> not (Hashtbl.mem in_xs q)) y_members
          in
          Hashtbl.replace members y rest;
          Hashtbl.replace members z xs;
          List.iter (fun q -> block.(q) <- z) xs;
          let smaller = if x_size <= y_size - x_size then z else y in
          for c' = 0 to k - 1 do
            if Hashtbl.mem in_w (y, c') then push z c' else push smaller c'
          done
        end)
      touched
  done;
  block

let minimize_ref a =
  let d, _ = Afsa.renumber (Determinize.determinize a) in
  let n = Afsa.num_states d in
  if n = 0 then d
  else begin
    let alpha = Array.of_list (Afsa.alphabet d) in
    let k = Array.length alpha in
    let col = Hashtbl.create (max 1 k) in
    Array.iteri (fun c l -> Hashtbl.replace col l c) alpha;
    let sink = n in
    let m = n + 1 in
    let succ = Array.make_matrix k m sink in
    List.iter
      (fun q ->
        List.iter
          (fun (sym, t) ->
            match sym with
            | Sym.L l -> succ.(Hashtbl.find col l).(q) <- t
            | Sym.Eps -> assert false (* deterministic, ε-free *))
          (Afsa.out_edges d q))
      (Afsa.states d);
    let init_class =
      Array.init m (fun q ->
          if q = sink then (false, Chorev_formula.Pp.to_string F.True)
          else
            ( Afsa.is_final d q,
              Chorev_formula.Pp.to_string
                (Chorev_formula.Simplify.simplify (Afsa.annotation d q)) ))
    in
    let block = hopcroft_ref ~n:m ~k ~succ ~init_class in
    let edges = ref [] in
    let seen = Hashtbl.create 16 in
    for q = 0 to n - 1 do
      for c = 0 to k - 1 do
        let t = succ.(c).(q) in
        if t <> sink then begin
          let e = (block.(q), Sym.L alpha.(c), block.(t)) in
          if not (Hashtbl.mem seen e) then begin
            Hashtbl.replace seen e ();
            edges := e :: !edges
          end
        end
      done
    done;
    let finals =
      List.filter_map
        (fun q -> if Afsa.is_final d q then Some block.(q) else None)
        (Afsa.states d)
      |> List.sort_uniq compare
    in
    let ann =
      List.map (fun q -> (block.(q), Afsa.annotation d q)) (Afsa.states d)
      |> List.sort_uniq compare
    in
    Afsa.make
      ~alphabet:(Array.to_list alpha)
      ~start:block.(Afsa.start d) ~finals ~edges:!edges ~ann ()
    |> Afsa.trim |> Minimize.canonical_renumber |> fst
  end
