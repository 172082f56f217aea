(* The public-process generator that Chorev_mapping.Public_gen replaced,
   kept verbatim as the oracle of the generation differential tests in
   test_mapping and test_skeleton: three automata (the raw compilation,
   its ε-elimination and the canonical renumbering), table entries
   appended with [@] and deduplicated by linear scan, then fused over
   each ε-closure and renumbered. Its [Table] is a private copy of the
   fold the library used to have; [to_table] hands the result over as
   a [Chorev_mapping.Table.t]. No production code calls it. *)

(** Public-process generation: compile a private BPEL process into its
    public aFSA and the mapping table (Sec. 3.3 of the paper).

    The compilation is a depth-first traversal of the block structure.
    Each activity is compiled between an [entry] and an [exit] state;
    structured blocks record a mapping-table entry at their entry state,
    and every freshly allocated state is attributed to the innermost
    enclosing named block (this reproduces Table 1 of the paper, see
    {!Table}). Internal choices ([switch] with ≥ 2 branches) annotate
    their entry state with the conjunctive mandatory formula of
    {!Firsts.choice_annotation}. [while] loops with the paper's
    non-terminating condition ("1 = 1" or "true") have no exit edge.

    ε-transitions produced by silent activities and loop exits are
    eliminated afterwards by {!Chorev_afsa.Epsilon.eliminate}; each
    state's table entries absorb those of its ε-closure first, so they
    survive. States are finally renumbered canonically, in BFS order
    from the start ({!Chorev_afsa.Minimize.canonical_renumber}; the
    paper's figures number them the same way, 1-based), and the table
    follows the renumbering, dropping the states it left out. *)

module F = Chorev_formula.Syntax
module Afsa = Chorev_afsa.Afsa
module Sym = Chorev_afsa.Sym
module Label = Chorev_afsa.Label
module ISet = Afsa.ISet
open Chorev_bpel
module Firsts = Chorev_mapping.Firsts

module Table = struct
  type entry = Chorev_mapping.Table.entry = {
    block : string;
    path : Chorev_bpel.Activity.path;
  }

  let equal_entry (a : entry) b = a = b

  module IMap = Map.Make (Int)

  type t = { assoc : entry list IMap.t }

  let empty = { assoc = IMap.empty }

  (** Append an entry for [state] (chronological order, deduplicated). *)
  let add t ~state entry =
    let cur = Option.value ~default:[] (IMap.find_opt state t.assoc) in
    if List.exists (fun e -> equal_entry e entry) cur then t
    else { assoc = IMap.add state (cur @ [ entry ]) t.assoc }

  let entries t state = Option.value ~default:[] (IMap.find_opt state t.assoc)

  (** Merge the associations of [from] into [into] (used when ε-elimination
      fuses states) — [into]'s entries first. *)
  let merge t ~into ~from =
    List.fold_left (fun t e -> add t ~state:into e) t (entries t from)

  (** Renumber states through [f], dropping the states it maps to
      [None]; entries of states mapped to the same new id are
      concatenated in old-id order. *)
  let renumber t ~f =
    IMap.fold
      (fun q es acc ->
        match f q with
        | None -> acc
        | Some q' -> List.fold_left (fun acc e -> add acc ~state:q' e) acc es)
      t.assoc empty

  let to_table ~states t =
    Chorev_mapping.Table.of_array (Array.init states (entries t))
end

type builder = {
  mutable next : int;
  mutable edges : (int * Sym.t * int) list;
  mutable finals : ISet.t;
  mutable anns : (int * F.t) list;
  mutable table : Table.t;
}

let new_builder () =
  { next = 0; edges = []; finals = ISet.empty; anns = []; table = Table.empty }

let fresh b ~ctx =
  let q = b.next in
  b.next <- q + 1;
  (match ctx with
  | Some entry -> b.table <- Table.add b.table ~state:q entry
  | None -> ());
  q

let edge b s sym t = b.edges <- (s, sym, t) :: b.edges
let lbl l = Sym.L l
let mark_final b q = b.finals <- ISet.add q b.finals
let annotate b q f = if not (F.equal f F.True) then b.anns <- (q, f) :: b.anns

let record_block b ~state ~path act =
  match Activity.block_name act with
  | Some name -> b.table <- Table.add b.table ~state { Table.block = name; path }
  | None -> ()

(** Is a while condition the paper's non-terminating idiom? *)
let nonterminating_cond cond =
  let squash s =
    String.to_seq s |> Seq.filter (fun c -> c <> ' ') |> String.of_seq
    |> String.lowercase_ascii
  in
  List.mem (squash cond) [ "1=1"; "true" ]

(* Interleaving (shuffle) product of two fragment automata, used for
   [flow]. Each side moves independently; annotations combine by
   conjunction; finals are pairs of finals. *)
let shuffle a1 a2 =
  let module PMap = Map.Make (struct
    type t = int * int

    let compare = compare
  end) in
  let next = ref 0 in
  let ids = ref PMap.empty in
  let edges = ref [] in
  let finals = ref [] in
  let anns = ref [] in
  let rec visit ((q1, q2) as pr) =
    match PMap.find_opt pr !ids with
    | Some id -> id
    | None ->
        let id = !next in
        incr next;
        ids := PMap.add pr id !ids;
        if Afsa.is_final a1 q1 && Afsa.is_final a2 q2 then finals := id :: !finals;
        let ann = F.and_ (Afsa.annotation a1 q1) (Afsa.annotation a2 q2) in
        if not (F.equal ann F.True) then anns := (id, ann) :: !anns;
        List.iter
          (fun (sym, t1) ->
            let tid = visit (t1, q2) in
            edges := (id, sym, tid) :: !edges)
          (Afsa.out_edges a1 q1);
        List.iter
          (fun (sym, t2) ->
            let tid = visit (q1, t2) in
            edges := (id, sym, tid) :: !edges)
          (Afsa.out_edges a2 q2);
        id
  in
  let s0 = visit (Afsa.start a1, Afsa.start a2) in
  Afsa.make ~start:s0 ~finals:!finals ~edges:!edges ~ann:!anns ()

let rec compile (p : Process.t) b ~ctx ~path ~entry ~exit act =
  record_block b ~state:entry ~path act;
  let ctx' =
    match Activity.block_name act with
    | Some name -> Some { Table.block = name; path }
    | None -> ctx
  in
  let comm_edges kind c =
    let labels = Process.labels_of_comm p kind c in
    let rec chain s = function
      | [] -> edge b s Sym.Eps exit
      | [ l ] -> edge b s (lbl l) exit
      | l :: rest ->
          let m = fresh b ~ctx in
          edge b s (lbl l) m;
          chain m rest
    in
    chain entry labels
  in
  match (act : Activity.t) with
  | Receive c -> comm_edges `Receive c
  | Reply c -> comm_edges `Reply c
  | Invoke c -> comm_edges `Invoke c
  | Assign _ | Empty -> edge b entry Sym.Eps exit
  | Terminate -> mark_final b entry
  | Scope (_, body) ->
      compile p b ~ctx:ctx' ~path:(path @ [ 0 ]) ~entry ~exit body
  | Sequence (_, body) ->
      let n = List.length body in
      let _ =
        List.fold_left
          (fun (i, s) child ->
            let s' = if i = n - 1 then exit else fresh b ~ctx:ctx' in
            compile p b ~ctx:ctx' ~path:(path @ [ i ]) ~entry:s ~exit:s' child;
            (i + 1, s'))
          (0, entry) body
      in
      if n = 0 then edge b entry Sym.Eps exit
  | Switch { branches; _ } ->
      if List.length branches >= 2 then
        annotate b entry
          (Firsts.choice_annotation p (List.map (fun br -> br.Activity.body) branches));
      List.iteri
        (fun i br ->
          compile p b ~ctx:ctx' ~path:(path @ [ i ]) ~entry ~exit
            br.Activity.body)
        branches;
      if branches = [] then edge b entry Sym.Eps exit
  | Pick { on_messages; _ } ->
      List.iteri
        (fun i (c, body) ->
          (* the trigger is a receive; its labels chain to a fresh state
             from which the arm body continues *)
          let labels = Process.labels_of_comm p `Receive c in
          let after =
            List.fold_left
              (fun s l ->
                let m = fresh b ~ctx:ctx' in
                edge b s (lbl l) m;
                m)
              entry labels
          in
          compile p b ~ctx:ctx' ~path:(path @ [ i ]) ~entry:after ~exit body)
        on_messages;
      if on_messages = [] then edge b entry Sym.Eps exit
  | While { cond; body; _ } ->
      compile p b ~ctx:ctx' ~path:(path @ [ 0 ]) ~entry ~exit:entry body;
      if not (nonterminating_cond cond) then begin
        edge b entry Sym.Eps exit;
        annotate b entry (Firsts.choice_annotation p [ body ])
      end
  | Flow (_, branches) ->
      (* compile each branch standalone, shuffle, embed *)
      let frags =
        List.map
          (fun br ->
            let fb = new_builder () in
            let s = fresh fb ~ctx:None in
            let e = fresh fb ~ctx:None in
            compile p fb ~ctx:None ~path:[] ~entry:s ~exit:e br;
            mark_final fb e;
            Afsa.make ~start:s
              ~finals:(ISet.elements fb.finals)
              ~edges:fb.edges ~ann:fb.anns ())
          branches
      in
      let product =
        match frags with
        | [] -> None
        | f :: rest -> Some (List.fold_left shuffle f rest)
      in
      (match product with
      | None -> edge b entry Sym.Eps exit
      | Some prod ->
          (* embed with fresh states *)
          let map = Hashtbl.create 16 in
          let emb q =
            match Hashtbl.find_opt map q with
            | Some v -> v
            | None ->
                let v = fresh b ~ctx:ctx' in
                Hashtbl.add map q v;
                v
          in
          List.iter
            (fun (s, sym, t) -> edge b (emb s) sym (emb t))
            (Afsa.edges prod);
          List.iter (fun (q, f) -> annotate b (emb q) f) (Afsa.annotations prod);
          edge b entry Sym.Eps (emb (Afsa.start prod));
          List.iter (fun q -> edge b (emb q) Sym.Eps exit) (Afsa.finals prod))

(* ------------------------------------------------------------------ *)
(* Table provenance across ε-elimination                               *)
(* ------------------------------------------------------------------ *)

(* ε-elimination fuses each state with its ε-closure, so each state
   takes over the table entries of its closure members. The fold order
   is part of the table: states ascending, members ascending, each
   merge reading the table as the earlier merges left it. *)
let merge_closures (a : Afsa.t) (table : Table.t) =
  let cl_off, cl_tgt = Afsa.eps_closure_csr a in
  let table = ref table in
  for i = 0 to a.Afsa.n - 1 do
    let q = a.Afsa.state_ids.(i) in
    for k = cl_off.(i) to cl_off.(i + 1) - 1 do
      let s = a.Afsa.state_ids.(cl_tgt.(k)) in
      if s <> q then table := Table.merge !table ~into:q ~from:s
    done
  done;
  !table

let c_runs = Chorev_obs.Metrics.counter "mapping.public_gen.runs"

(** [generate p] compiles private process [p] to its public aFSA and
    mapping table. The automaton's alphabet is the full alphabet of the
    process. *)
let generate (p : Process.t) : Afsa.t * Chorev_mapping.Table.t =
  Chorev_obs.Metrics.incr c_runs;
  Chorev_obs.Obs.span "public_gen"
    ~attrs:
      [
        ("process", Chorev_obs.Sink.Str (Process.name p));
        ("party", Chorev_obs.Sink.Str (Process.party p));
      ]
  @@ fun () ->
  let b = new_builder () in
  let root_entry = fresh b ~ctx:None in
  b.table <-
    Table.add b.table ~state:root_entry { Table.block = "BPELProcess"; path = [] };
  let root_exit = fresh b ~ctx:None in
  mark_final b root_exit;
  compile p b ~ctx:None ~path:[] ~entry:root_entry ~exit:root_exit
    (Process.body p);
  let raw =
    Afsa.make
      ~alphabet:(Process.alphabet p)
      ~start:root_entry
      ~finals:(ISet.elements b.finals)
      ~edges:b.edges ~ann:b.anns ()
  in
  let table = merge_closures raw b.table in
  (* Generation ticks no fuel. An ε-free [raw] comes back from
     [eliminate] unchanged, states after a [terminate] included; the
     renumbering numbers only states reachable from the start, so it
     drops them. *)
  let renum, map =
    Chorev_afsa.Epsilon.eliminate ~budget:Chorev_guard.Budget.unlimited raw
    |> Chorev_afsa.Minimize.canonical_renumber
  in
  ( renum,
    Table.renumber table ~f:(fun q -> Afsa.IMap.find_opt q map)
    |> Table.to_table ~states:(Afsa.num_states renum) )

(** Just the public aFSA. *)
let public p = fst (generate p)

(* The differential check: [Chorev_mapping.Public_gen.generate] and this
   generator give [p] the same automaton (fingerprint) and table. *)
let agrees p =
  let a, t = Chorev_mapping.Public_gen.generate p and ra, rt = generate p in
  String.equal (Chorev_afsa.Fingerprint.hex a) (Chorev_afsa.Fingerprint.hex ra)
  && String.equal
       (Chorev_mapping.Table.to_string t)
       (Chorev_mapping.Table.to_string rt)
