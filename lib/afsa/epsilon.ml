(** ε-closure and ε-elimination.

    View generation (Sec. 3.4) relabels foreign transitions with ε; the
    resulting automaton is then ε-eliminated before minimization.
    Annotations of states merged along ε-paths are combined by
    conjunction: every obligation of a state silently reachable from [q]
    is already an obligation at [q].

    Closure queries and ε-elimination both read the packed form's
    ε-closure CSR ({!Afsa.Packed.eps_closure_csr}): one SCC-collapsed
    O(V+E) pass per automaton, cached on the pack. *)

module F = Chorev_formula.Syntax
module Budget = Chorev_guard.Budget
module ISet = Afsa.ISet
module P = Afsa.Packed

(* [acc] plus the ε-closure of original id [q]; a state outside the
   automaton closes to itself. *)
let add_closure p (cl_off, cl_tgt) q acc =
  let i = P.dense p q in
  if i < 0 then ISet.add q acc
  else begin
    let acc = ref acc in
    for k = cl_off.(i) to cl_off.(i + 1) - 1 do
      acc := ISet.add p.P.state_ids.(cl_tgt.(k)) !acc
    done;
    !acc
  end

(** ε-closure of a single state. States outside the automaton close to
    themselves. *)
let closure_of a q =
  let p = P.get a in
  add_closure p (P.eps_closure_csr p) q ISet.empty

(** ε-closure of a state set. *)
let closure a set =
  let p = P.get a in
  let cl = P.eps_closure_csr p in
  ISet.fold (add_closure p cl) set ISet.empty

(** Remove all ε-transitions, preserving the language. For each state
    [q], the new outgoing edges are the proper edges of all states in
    the ε-closure of [q]; [q] is final if its closure meets a final
    state; its annotation is the conjunction of the closure's
    annotations. Unreachable states are dropped. One fused sweep per
    state over the closure CSR: the closure rows come out sorted
    ascending (dense ascending == original-id ascending), so the finals
    test, the [F.and_] fold and the budget tick (one per state) happen
    in the same order as the naive [Ablation.eliminate_ref]. An ε-free
    input is returned unchanged. Public-process generation applies the
    same per-state rule in its own pass; keep the two in step. *)
let eliminate ?budget a =
  let budget =
    match budget with Some b -> b | None -> Budget.ambient ()
  in
  if not (Afsa.has_eps a) then a
  else
    let p = P.get a in
    let cl_off, cl_tgt = P.eps_closure_csr p in
    let edges = ref [] and finals = ref [] and ann = ref [] in
    for i = 0 to p.P.n - 1 do
      Budget.tick budget;
      let q = p.P.state_ids.(i) in
      let fin = ref false and f = ref F.True in
      for k = cl_off.(i) to cl_off.(i + 1) - 1 do
        let m = cl_tgt.(k) in
        if Bitset.mem p.P.finals m then fin := true;
        f := F.and_ p.P.ann.(m) !f;
        for e = p.P.row_off.(m) to p.P.row_off.(m + 1) - 1 do
          edges :=
            (q, p.P.syms.(p.P.row_sym.(e)), p.P.state_ids.(p.P.row_tgt.(e)))
            :: !edges
        done
      done;
      if !fin then finals := q :: !finals;
      let f = Chorev_formula.Simplify.simplify !f in
      if not (F.equal f F.True) then ann := (q, f) :: !ann
    done;
    Afsa.make
      ~alphabet:(Afsa.alphabet a)
      ~start:(Afsa.start a) ~finals:!finals ~edges:!edges ~ann:!ann ()
    |> Afsa.trim_unreachable
