(** ε-closure and ε-elimination.

    View generation (Sec. 3.4) relabels foreign transitions with ε; the
    resulting automaton is then ε-eliminated before minimization.
    Annotations of states merged along ε-paths are combined by
    conjunction: every obligation of a state silently reachable from [q]
    is already an obligation at [q].

    Closure queries and ε-elimination both read the automaton's
    ε-closure CSR ({!Afsa.eps_closure_csr}): one SCC-collapsed O(V+E)
    pass per automaton, cached on it. *)

module F = Chorev_formula.Syntax
module Budget = Chorev_guard.Budget
module ISet = Afsa.ISet

(* [acc] plus the ε-closure of original id [q]; a state outside the
   automaton closes to itself. *)
let add_closure a (cl_off, cl_tgt) q acc =
  let i = Afsa.dense a q in
  if i < 0 then ISet.add q acc
  else begin
    let acc = ref acc in
    for k = cl_off.(i) to cl_off.(i + 1) - 1 do
      acc := ISet.add a.Afsa.state_ids.(cl_tgt.(k)) !acc
    done;
    !acc
  end

(** ε-closure of a single state. States outside the automaton close to
    themselves. *)
let closure_of a q = add_closure a (Afsa.eps_closure_csr a) q ISet.empty

(** ε-closure of a state set. *)
let closure a set =
  let cl = Afsa.eps_closure_csr a in
  ISet.fold (add_closure a cl) set ISet.empty

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
    let cl_off, cl_tgt = Afsa.eps_closure_csr a in
    let edges = ref [] and finals = ref [] and ann = ref [] in
    for i = 0 to a.Afsa.n - 1 do
      Budget.tick budget;
      let q = a.Afsa.state_ids.(i) in
      let fin = ref false and f = ref F.True in
      for k = cl_off.(i) to cl_off.(i + 1) - 1 do
        let m = cl_tgt.(k) in
        if Bitset.mem a.Afsa.finals m then fin := true;
        f := F.and_ a.Afsa.ann.(m) !f;
        for e = a.Afsa.row_off.(m) to a.Afsa.row_off.(m + 1) - 1 do
          edges :=
            ( q,
              a.Afsa.syms.(a.Afsa.row_sym.(e)),
              a.Afsa.state_ids.(a.Afsa.row_tgt.(e)) )
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
