(** Completion: make every state have an outgoing transition for every
    alphabet symbol, by adding a non-final sink. Definition 4 of the
    paper (difference) assumes complete automata. The sink carries the
    default annotation [true]. *)

module ISet = Afsa.ISet

(** [complete ?over a] completes [a] over its own alphabet unioned with
    [over]. No-op when already complete. The automaton must be
    ε-free (determinize first if needed). *)
let complete ?budget ?(over = []) a =
  let budget =
    match budget with
    | Some b -> b
    | None -> Chorev_guard.Budget.ambient ()
  in
  let a = Afsa.widen_alphabet a over in
  if Afsa.has_eps a then
    invalid_arg "Complete.complete: automaton has ε-transitions";
  let alpha = Afsa.alphabet a in
  (* presence scan over the rows, whose symbol ids number [alpha] in
     order: mark the symbol ids of each state's CSR row in a stamp
     array, then sweep [alpha] — (state ascending, alphabet order)
     pairs, one tick per state *)
  let mark = Array.make (max 1 (Array.length a.Afsa.syms)) (-1) in
  let missing = ref [] in
  for i = 0 to a.Afsa.n - 1 do
    Chorev_guard.Budget.tick budget;
    for e = a.Afsa.row_off.(i) to a.Afsa.row_off.(i + 1) - 1 do
      mark.(a.Afsa.row_sym.(e)) <- i
    done;
    let q = a.Afsa.state_ids.(i) in
    List.iteri
      (fun sid l -> if mark.(sid) <> i then missing := (q, l) :: !missing)
      alpha
  done;
  let missing = List.rev !missing in
  if missing = [] then a
  else
    let sink = 1 + max 0 a.Afsa.state_ids.(a.Afsa.n - 1) in
    Afsa.add_edges a
      (List.map (fun (q, l) -> (q, Sym.L l, sink)) missing
      @ List.map (fun l -> (sink, Sym.L l, sink)) alpha)

let is_complete a =
  let alpha = Label.Set.of_list (Afsa.alphabet a) in
  List.for_all
    (fun q -> Label.Set.subset alpha (Afsa.out_symbols a q))
    (Afsa.states a)
