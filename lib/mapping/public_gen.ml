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

    One pass over the compiler's states [0..n-1] then does what
    {!Chorev_afsa.Epsilon.eliminate} and
    {!Chorev_afsa.Minimize.canonical_renumber} would: a BFS from the
    start fuses each state with its ε-closure and numbers the states it
    reaches, as the paper's figures do (theirs are 1-based). Each
    state's table entries absorb those of its closure, so they survive;
    unreached states (after a [terminate]) are dropped. *)

module F = Chorev_formula.Syntax
module Afsa = Chorev_afsa.Afsa
module Sym = Chorev_afsa.Sym
open Chorev_bpel

type builder = {
  mutable next : int;
  mutable edges : (int * Sym.t * int) list;
  mutable finals : int list;
  mutable anns : (int * F.t) list;
  mutable blocks : Table.entry list;  (* newest first; id k = k-th recorded *)
  mutable nblocks : int;
  mutable tab : (int * int) list;  (* (state, block id), newest first *)
}

let new_builder () =
  { next = 0; edges = []; finals = []; anns = []; blocks = []; nblocks = 0;
    tab = [] }

let fresh b ~ctx =
  let q = b.next in
  b.next <- q + 1;
  Option.iter (fun id -> b.tab <- (q, id) :: b.tab) ctx;
  q

let edge b s sym t = b.edges <- (s, sym, t) :: b.edges
let lbl l = Sym.L l
let mark_final b q = b.finals <- q :: b.finals
let annotate b q f = if not (F.equal f F.True) then b.anns <- (q, f) :: b.anns

(* Record [entry] at [state]; its id is the context of the states the
   block allocates. No two compile calls record equal entries (paths
   are positions), so ids are as distinct as the entries. *)
let record b ~state entry =
  let id = b.nblocks in
  b.blocks <- entry :: b.blocks;
  b.nblocks <- id + 1;
  b.tab <- (state, id) :: b.tab;
  id

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
  let next = ref 0 in
  let ids = Hashtbl.create 16 in
  let edges = ref [] in
  let finals = ref [] in
  let anns = ref [] in
  let rec visit ((q1, q2) as pr) =
    match Hashtbl.find_opt ids pr with
    | Some id -> id
    | None ->
        let id = !next in
        incr next;
        Hashtbl.add ids pr id;
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
  let ctx' =
    match Activity.block_name act with
    | Some block -> Some (record b ~state:entry { Table.block; path })
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
            Afsa.make ~start:s ~finals:fb.finals ~edges:fb.edges
              ~ann:fb.anns ())
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

(* The public aFSA and table of a compiled builder, from [start]: its
   ε-elimination, canonical numbering and table in one pass. *)
let finish p b ~start =
  let n = b.next in
  let rows = Array.make n [] and eps = Array.make n [] in
  List.iter
    (fun (s, sym, t) ->
      match sym with
      | Sym.Eps -> eps.(s) <- t :: eps.(s)
      | Sym.L _ -> rows.(s) <- (sym, t) :: rows.(s))
    b.edges;
  let eps_off = Array.make (n + 1) 0 in
  Array.iteri (fun q ts -> eps_off.(q + 1) <- eps_off.(q) + List.length ts) eps;
  let eps_tgt = Array.of_list (List.concat (Array.to_list eps)) in
  let cl_off, cl_tgt = Afsa.closure_csr n eps_off eps_tgt in
  let final = Array.make n false and ann = Array.make n F.True in
  List.iter (fun q -> final.(q) <- true) b.finals;
  (* [Afsa.make]'s rule: a state keeps its oldest annotation that does
     not simplify to true ([b.anns] is newest first) *)
  List.iter
    (fun (q, f) ->
      let f = Chorev_formula.Simplify.simplify f in
      if not (F.equal f F.True) then ann.(q) <- f)
    b.anns;
  (* BFS from the start, numbering the ε-eliminated automaton as
     [Minimize.canonical_renumber] would: each state's fused row in
     (symbol, target) order, the order [compare] gives. Per state,
     [Epsilon.eliminate]'s rule: final when its closure meets a final
     state, annotated with the [F.and_] fold of the closure's
     annotations in ascending member order, simplified once. *)
  let newid = Array.make n (-1) and order = Array.make n start in
  newid.(start) <- 0;
  let count = ref 1 and edges = ref [] and finals = ref [] and anns = ref [] in
  let rec bfs i =
    if i < !count then begin
      let q = order.(i) and fin = ref false and f = ref F.True in
      let row = ref [] in
      for k = cl_off.(q) to cl_off.(q + 1) - 1 do
        let m = cl_tgt.(k) in
        if final.(m) then fin := true;
        f := F.and_ ann.(m) !f;
        row := List.rev_append rows.(m) !row
      done;
      List.iter
        (fun (sym, t) ->
          if newid.(t) < 0 then begin
            newid.(t) <- !count;
            order.(!count) <- t;
            incr count
          end;
          edges := (i, sym, newid.(t)) :: !edges)
        (List.sort_uniq compare !row);
      if !fin then finals := i :: !finals;
      let f = Chorev_formula.Simplify.simplify !f in
      if not (F.equal f F.True) then anns := (i, f) :: !anns;
      bfs (i + 1)
    end
  in
  bfs 0;
  (* Table provenance, fusing each state with its closure in ascending
     order: its own entries first, then each other member's as the
     fusions so far left them, appended without repeats. *)
  let merged = Array.make n [] and stamp = Array.make (max 1 b.nblocks) (-1) in
  List.iter (fun (q, id) -> merged.(q) <- id :: merged.(q)) b.tab;
  for q = 0 to n - 1 do
    let acc = ref [] in
    let add id = if stamp.(id) <> q then (stamp.(id) <- q; acc := id :: !acc) in
    List.iter add merged.(q);
    for k = cl_off.(q) to cl_off.(q + 1) - 1 do
      List.iter add merged.(cl_tgt.(k))
    done;
    merged.(q) <- List.rev !acc
  done;
  let blocks = Array.of_list (List.rev b.blocks) in
  ( Afsa.make ~alphabet:(Process.alphabet p) ~start:0 ~finals:!finals
      ~edges:!edges ~ann:!anns (),
    Table.of_array
      (Array.init !count (fun i ->
           List.map (fun id -> blocks.(id)) merged.(order.(i)))) )

let c_runs = Chorev_obs.Metrics.counter "mapping.public_gen.runs"

(** [generate p] compiles private process [p] to its public aFSA and
    mapping table. The automaton's alphabet is the full alphabet of the
    process. Generation ticks no fuel. *)
let generate (p : Process.t) : Afsa.t * Table.t =
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
  ignore (record b ~state:root_entry { Table.block = "BPELProcess"; path = [] });
  let root_exit = fresh b ~ctx:None in
  mark_final b root_exit;
  compile p b ~ctx:None ~path:[] ~entry:root_entry ~exit:root_exit
    (Process.body p);
  finish p b ~start:root_entry

(** Just the public aFSA. *)
let public p = fst (generate p)
