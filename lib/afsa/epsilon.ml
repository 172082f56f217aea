(** ε-closure and ε-elimination.

    View generation (Sec. 3.4) relabels foreign transitions with ε; the
    resulting automaton is then ε-eliminated before minimization.
    Annotations of states merged along ε-paths are combined by
    conjunction: every obligation of a state silently reachable from [q]
    is already an obligation at [q].

    All closure queries route through {!Afsa.eps_closures}: one
    SCC-memoized O(V+E) pass per automaton, cached on the index slot.
    There is no per-call list-append walk left — the old
    [eps_succs a q @ rest] closure was O(V·E) per query. ε-elimination
    runs over the packed form's own ε-closure CSR. *)

module F = Chorev_formula.Syntax
module Budget = Chorev_guard.Budget
module ISet = Afsa.ISet

(** ε-closure of a single state. States outside the automaton close to
    themselves, matching the old walk's behavior. *)
let closure_of a q =
  match Hashtbl.find_opt (Afsa.eps_closures a) q with
  | Some cl -> cl
  | None -> ISet.singleton q

(** ε-closure of a state set. *)
let closure a set =
  let tbl = Afsa.eps_closures a in
  ISet.fold
    (fun q acc ->
      match Hashtbl.find_opt tbl q with
      | Some cl -> ISet.union cl acc
      | None -> ISet.add q acc)
    set ISet.empty

(** Remove all ε-transitions, preserving the language. For each state
    [q], the new outgoing edges are the proper edges of all states in
    the ε-closure of [q]; [q] is final if its closure meets a final
    state; its annotation is the conjunction of the closure's
    annotations. Unreachable states are dropped. One fused sweep per
    state over the packed form's ε-closure CSR ({!Afsa.Packed}): the
    closure rows come out sorted ascending (dense ascending ==
    original-id ascending), so the finals test, the [F.and_] fold and
    the budget tick (one per state) happen in the same order as the
    map-based [Ablation.eliminate_ref]. *)
let eliminate ?budget a =
  let budget =
    match budget with Some b -> b | None -> Budget.ambient ()
  in
  if not (Afsa.has_eps a) then a
  else
    let module P = Afsa.Packed in
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
