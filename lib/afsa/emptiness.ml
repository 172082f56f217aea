(** Annotated emptiness test (Sec. 3.2 of the paper).

    A standard FSA is non-empty when a final state is reachable; the
    aFSA test additionally requires that every formula annotated to a
    state on the accepting path evaluates to true, where a variable [v]
    is true at state [q] iff there is a [v]-labeled transition from [q]
    to a state that itself admits acceptance. In the paper's words: "all
    transitions of a conjunction associated to a single state are
    available in the automaton and a final state can be reached
    following each of these transitions".

    We compute the *greatest* fixpoint of the predicate
    [sat : Q -> bool]:

      sat(q) = eval(ann(q), σ_q) ∧ reach_final_through_sat(q)
      σ_q(v) = ∃ (q,v,q') ∈ Δ. sat(q')

    where [reach_final_through_sat(q)] holds when a final sat-state is
    reachable from [q] via sat-states only. Starting from sat = Q and
    shrinking is essential: protocol loops support their annotations
    mutually (the buyer's tracking loop of Fig. 6 requires
    [get_statusOp], whose target supports the loop head in turn), which
    a least fixpoint would wrongly reject; the reachability conjunct
    rules out vacuous self-supporting cycles that never reach a final
    state. Both conjuncts are monotone in [sat] for positive
    annotations (all the paper uses), so the iteration converges to the
    greatest fixpoint; for annotations containing negation the result
    is an approximation and the API reports a warning.

    The automaton is non-empty iff sat(q0) — equivalently, iff "the
    annotation of the start state is true" in the paper's phrasing.

    Implementation notes: the loop runs over the automaton's rows. The
    reverse-edge table is its predecessor CSR ({!Afsa.preds_csr}),
    built once per automaton (not once per fixpoint iteration), and
    each annotated state gets a variable → targets table computed once
    up front, so an iteration is O(V + E) over bitsets with no
    per-iteration allocation. {!Ablation.analyze_ref} keeps the seed's
    list-based fixpoint as the differential oracle. *)

module F = Chorev_formula.Syntax
module Budget = Chorev_guard.Budget
module ISet = Afsa.ISet

(* Fixpoint-level instrumentation (DESIGN.md §7): number of [analyze]
   runs and total iterations until convergence across them. *)
let c_runs = Chorev_obs.Metrics.counter "afsa.emptiness.runs"
let c_iterations = Chorev_obs.Metrics.counter "afsa.emptiness.iterations"

type result = {
  sat : ISet.t;  (** states from which annotated acceptance is possible *)
  nonempty : bool;
  iterations : int;
      (** fixpoint iterations until convergence (≥ 1); exposed so tests
          can assert parity with the reference implementation *)
  warning : string option;
      (** set when a non-positive annotation was encountered *)
}

(* The greatest-fixpoint loop over bitsets and the predecessor CSR —
   [sat]/[reach]/[seen] are flat bitsets over dense indexes, the
   backward closure is an int-array stack, and an iteration allocates
   nothing. Budget: one tick per fixpoint pass plus one per state
   popped in the backward closure. *)
let analyze ?budget a =
  let budget =
    match budget with Some b -> b | None -> Budget.ambient ()
  in
  let warning =
    if List.for_all (fun (_, f) -> F.is_positive f) (Afsa.annotations a) then
      None
    else
      Some
        "annotation contains negation: emptiness fixpoint is an \
         approximation only"
  in
  let n = a.Afsa.n in
  (* per annotated state: variable → dense targets, computed once *)
  let vt_of = Array.make (max 1 n) None in
  Bitset.iter
    (fun i ->
      let vt : (string, int list) Hashtbl.t = Hashtbl.create 8 in
      let e = ref a.Afsa.row_off.(i) in
      let hi = a.Afsa.row_off.(i + 1) in
      while !e < hi do
        let sid = a.Afsa.row_sym.(!e) in
        let g0 = !e in
        while !e < hi && a.Afsa.row_sym.(!e) = sid do
          incr e
        done;
        let v =
          match a.Afsa.syms.(sid) with
          | Sym.L l -> Label.to_string l
          | Sym.Eps -> assert false
        in
        let ts = ref (Option.value ~default:[] (Hashtbl.find_opt vt v)) in
        for f = g0 to !e - 1 do
          ts := a.Afsa.row_tgt.(f) :: !ts
        done;
        Hashtbl.replace vt v !ts
      done;
      vt_of.(i) <- Some vt)
    a.Afsa.ann_nontrivial;
  let holds sat i =
    match vt_of.(i) with
    | None -> true (* default annotation [True] *)
    | Some vt ->
        let assign v =
          match Hashtbl.find_opt vt v with
          | None -> false
          | Some ts -> List.exists (fun t -> Bitset.mem sat t) ts
        in
        Chorev_formula.Eval.eval ~assign a.Afsa.ann.(i)
  in
  let poff, psrc = Afsa.preds_csr a in
  let stack = Array.make (max 1 n) 0 in
  let seen = Bitset.create n in
  let reach_final_through sat reach =
    Bitset.clear reach;
    Bitset.clear seen;
    let sp = ref 0 in
    Bitset.iter
      (fun f ->
        if Bitset.mem sat f then begin
          Bitset.add seen f;
          stack.(!sp) <- f;
          incr sp
        end)
      a.Afsa.finals;
    while !sp > 0 do
      Budget.tick budget;
      decr sp;
      let q = stack.(!sp) in
      Bitset.add reach q;
      for e = poff.(q) to poff.(q + 1) - 1 do
        let pr = psrc.(e) in
        if Bitset.mem sat pr && not (Bitset.mem seen pr) then begin
          Bitset.add seen pr;
          stack.(!sp) <- pr;
          incr sp
        end
      done
    done
  in
  let sat = Bitset.create n in
  Bitset.fill sat;
  let reach = Bitset.create n in
  let sat' = Bitset.create n in
  let iterations = ref 1 in
  let converged = ref false in
  while not !converged do
    Budget.tick budget;
    reach_final_through sat reach;
    Bitset.clear sat';
    Bitset.iter (fun q -> if holds sat q then Bitset.add sat' q) reach;
    if Bitset.equal sat' sat then converged := true
    else begin
      Bitset.blit ~src:sat' ~dst:sat;
      incr iterations
    end
  done;
  Chorev_obs.Metrics.incr c_runs;
  Chorev_obs.Metrics.add c_iterations !iterations;
  let sat_set =
    Bitset.fold (fun i acc -> ISet.add a.Afsa.state_ids.(i) acc) sat ISet.empty
  in
  {
    sat = sat_set;
    nonempty = Bitset.mem sat a.Afsa.start;
    iterations = !iterations;
    warning;
  }

(** An aFSA is empty when no message sequence satisfying all mandatory
    annotations leads from the start state to a final state. *)
let is_empty ?budget a = not (analyze ?budget a).nonempty

let is_nonempty ?budget a = (analyze ?budget a).nonempty

(** Plain (annotation-oblivious) emptiness: no final state reachable. *)
let is_empty_plain a =
  let r = Afsa.reachable_from a (Afsa.start a) in
  not (List.exists (fun f -> ISet.mem f r) (Afsa.finals a))

(** Shortest witness of annotated non-emptiness: a label sequence along
    sat-states from the start to a final sat-state. [None] if empty. *)
let witness ?budget a =
  let { sat; nonempty; _ } = analyze ?budget a in
  if not nonempty then None
  else
    let module Q = Queue in
    let q = Q.create () in
    Q.add (Afsa.start a, []) q;
    let seen = ref (ISet.singleton (Afsa.start a)) in
    let rec bfs () =
      if Q.is_empty q then None
      else
        let st, path = Q.pop q in
        if Afsa.is_final a st then Some (List.rev path)
        else begin
          List.iter
            (fun (sym, t) ->
              if ISet.mem t sat && not (ISet.mem t !seen) then begin
                seen := ISet.add t !seen;
                let path' =
                  match sym with Sym.Eps -> path | Sym.L l -> l :: path
                in
                Q.add (t, path') q
              end)
            (Afsa.out_edges a st);
          bfs ()
        end
    in
    bfs ()
