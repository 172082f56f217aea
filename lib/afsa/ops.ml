(** The aFSA algebra of the paper: intersection (Def. 3), complement,
    difference (Def. 4) and union (Sec. 5.2, step 2). *)

module F = Chorev_formula.Syntax

(* Per-operation call counters (DESIGN.md §7). The worklist-level
   counters (pairs/edges/sink pairs) live in {!Product}. *)
let c_intersect = Chorev_obs.Metrics.counter "afsa.ops.intersect"
let c_complement = Chorev_obs.Metrics.counter "afsa.ops.complement"
let c_difference = Chorev_obs.Metrics.counter "afsa.ops.difference"
let c_union = Chorev_obs.Metrics.counter "afsa.ops.union"

let inter_alphabet a b =
  Label.Set.elements
    (Label.Set.inter
       (Label.Set.of_list (Afsa.alphabet a))
       (Label.Set.of_list (Afsa.alphabet b)))

let union_alphabet a b =
  Label.Set.elements
    (Label.Set.union
       (Label.Set.of_list (Afsa.alphabet a))
       (Label.Set.of_list (Afsa.alphabet b)))

(** Intersection of two aFSAs (Definition 3): cross product over the
    shared alphabet, finals are pairs of finals, annotations combined by
    conjunction. ε-transitions of either side are interleaved. *)
let intersect ?budget a b =
  Chorev_obs.Metrics.incr c_intersect;
  let spec =
    {
      Product.alphabet = inter_alphabet a b;
      final = (fun (q1, q2) -> Afsa.is_final a q1 && Afsa.is_final b q2);
      combine_ann = F.and_;
    }
  in
  Product.run ?budget spec a b

(** Complement over an explicit alphabet (the automaton is determinized
    and completed first; the result is annotation-free since the
    mandatory-message semantics of annotations is not closed under
    complement — cf. DESIGN.md). *)
let complement ?budget ?(over = []) a =
  Chorev_obs.Metrics.incr c_complement;
  let d = Determinize.determinize ?budget a in
  let d = Complete.complete ?budget ~over d in
  let finals =
    List.filter (fun q -> not (Afsa.is_final d q)) (Afsa.states d)
  in
  Afsa.set_finals (Afsa.clear_annotations d) finals

(** Difference [a \ b] (Definition 4): the sequences of [a] not accepted
    by [b]; annotations of [a] are retained ([QA1] in the paper). The
    definition assumes complete automata; completion is over the union
    alphabet so that sequences of [a] using messages unknown to [b] are
    kept (as in the paper's Fig. 13a, where the new [cancelOp] message
    survives the difference with the old buyer process). *)
let difference ?budget a b =
  Chorev_obs.Metrics.incr c_difference;
  let over = union_alphabet a b in
  let db = Determinize.determinize ?budget b in
  let sink = Product.sink_of db in
  (* the right side is the complement of [db] completed over [over],
     kept virtual by giving only [db] a sink: the sink and every
     non-final state of [db] are final in the complement. *)
  let spec =
    {
      Product.alphabet = over;
      final =
        (fun (q1, q2) ->
          Afsa.is_final a q1 && (q2 = sink || not (Afsa.is_final db q2)));
      combine_ann = (fun ann_a _ -> ann_a);
    }
  in
  Product.run ?budget ~sink_b:sink spec a db |> Afsa.trim

(** Direct union: product of the two automata completed over the union
    alphabet, final when either side is final. Annotations are combined
    by conjunction — obligations of both protocols apply where their
    behaviours overlap, and each completion sink carries [true] so that
    the other side's obligations pass through unchanged (this matches
    the paper's Fig. 13b, where the buyer's original annotation and the
    new [cancelOp AND deliveryOp] annotation coexist). *)
let union ?budget a b =
  Chorev_obs.Metrics.incr c_union;
  let over = union_alphabet a b in
  let da = Determinize.determinize ?budget a in
  let db = Determinize.determinize ?budget b in
  let sink_a = Product.sink_of da and sink_b = Product.sink_of db in
  (* both sides virtually completed over [over], so a pair with both
     sides in their sinks is never built; a sink is never final, so
     [is_final] on a sink id is safely [false]. *)
  let spec =
    {
      Product.alphabet = over;
      final = (fun (q1, q2) -> Afsa.is_final da q1 || Afsa.is_final db q2);
      combine_ann = F.and_;
    }
  in
  Product.run ?budget ~sink_a ~sink_b spec da db |> Afsa.trim

(** Union by De Morgan, as the paper states it:
    [A ∪ B ≡ ¬(¬A ∩ ¬B)]. Language-equivalent to {!union} but
    annotation-free; kept for fidelity and cross-checked in tests. *)
let union_de_morgan ?budget a b =
  let over = union_alphabet a b in
  complement ?budget ~over
    (intersect ?budget
       (complement ?budget ~over a)
       (complement ?budget ~over b))
