(** Skeleton synthesis: the inverse of {!Public_gen} — derive a private
    BPEL process template from a public process.

    The paper's propagation pipeline ends with a process engineer
    editing the partner's private process (Sec. 5.2 ad 4); its
    companion work [16] composes new collaborations from public
    processes. Both need a conforming private-process *template* for a
    given public behaviour: this module produces one. Given a
    deterministic aFSA and the owning party, it recovers block
    structure:

    - a state whose outgoing labels are all *received* by the owner
      becomes a [pick];
    - all *sent* becomes a [switch] of [invoke]s;
    - single transitions chain into [sequence]s;
    - cycles become non-terminating [while] loops whose exiting
      branches end in [terminate] (exactly the idiom of the paper's
      Figs. 2 and 3);
    - a final state with continuations becomes a stop-or-continue
      [switch];
    - the branches of any other choice are cut where they all meet
      again, and the walk goes on from there once, after the choice.

    The synthesized process regenerates a public process with the same
    plain language as the input ({!Public_gen} round-trip, tested);
    mandatory annotations are re-derived from the recovered structure
    and may strengthen ones absent in a hand-built input. *)

module Afsa = Chorev_afsa.Afsa
module Label = Chorev_afsa.Label
module Sym = Chorev_afsa.Sym
module Budget = Chorev_guard.Budget
open Chorev_bpel

type error = string

(* Tarjan SCC; returns state -> scc id, and whether the scc is a real
   cycle (size > 1 or self-loop). *)
let sccs (a : Afsa.t) =
  let index = Hashtbl.create 16 in
  let low = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let next = ref 0 in
  let comp = Hashtbl.create 16 in
  let ncomp = ref 0 in
  let rec strong v =
    Hashtbl.replace index v !next;
    Hashtbl.replace low v !next;
    incr next;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun (_, w) ->
        if not (Hashtbl.mem index w) then begin
          strong w;
          Hashtbl.replace low v (min (Hashtbl.find low v) (Hashtbl.find low w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace low v (min (Hashtbl.find low v) (Hashtbl.find index w)))
      (Afsa.out_edges a v);
    if Hashtbl.find low v = Hashtbl.find index v then begin
      let id = !ncomp in
      incr ncomp;
      let rec pop () =
        match !stack with
        | [] -> ()
        | w :: rest ->
            stack := rest;
            Hashtbl.remove on_stack w;
            Hashtbl.replace comp w id;
            if w <> v then pop ()
      in
      pop ()
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strong v) (Afsa.states a);
  let cyclic = Hashtbl.create 16 in
  (* an scc is cyclic if it has more than one member or a self loop *)
  let members = Hashtbl.create 16 in
  Hashtbl.iter
    (fun v id ->
      Hashtbl.replace members id
        (v :: Option.value ~default:[] (Hashtbl.find_opt members id)))
    comp;
  Hashtbl.iter
    (fun id ms ->
      let is_cyclic =
        match ms with
        | [ v ] -> List.exists (fun (_, w) -> w = v) (Afsa.out_edges a v)
        | _ -> true
      in
      if is_cyclic then Hashtbl.replace cyclic id ())
    members;
  ((fun v -> Hashtbl.find comp v), fun id -> Hashtbl.mem cyclic id)

exception Unsupported of string

let too_deep () = raise (Unsupported "skeleton: automaton too deep")

(* The walk's graph in one loop context: [header] is the entry state and
   SCC of the enclosing while ([None] at top level), and [join] maps each
   state of the context to its immediate post-dominator in that graph
   ([None]: the virtual exit). *)
type context = {
  header : (int * int) option;
  join : (int, int option) Hashtbl.t;
}

let synthesize ?(name = "synthesized") ~party (a : Afsa.t) :
    (Process.t, error) result =
  if Afsa.has_eps a then Error "skeleton: automaton has ε-transitions"
  else if not (Afsa.is_deterministic a) then
    Error "skeleton: automaton is nondeterministic (determinize first)"
  else if
    not (List.for_all (Label.involves party) (Afsa.alphabet a))
  then Error ("skeleton: alphabet has labels not involving " ^ party)
  else begin
    let comp, cyclic = sccs a in
    (* one tick of the ambient budget per activity node of the output *)
    let budget = Budget.ambient () in
    let built act =
      Budget.tick budget;
      act
    in
    let fresh =
      let n = ref 0 in
      fun base ->
        incr n;
        Printf.sprintf "%s%d" base !n
    in
    let dir_of (l : Label.t) =
      if String.equal l.receiver party then `Recv else `Send
    in
    (* activity for one edge label from the owner's perspective *)
    let act_of (l : Label.t) =
      built
        (match dir_of l with
        | `Recv -> Activity.receive ~partner:l.sender ~op:l.msg
        | `Send -> Activity.invoke ~partner:l.receiver ~op:l.msg)
    in
    let seq_of = function
      | [] -> built Activity.Empty
      | [ x ] -> x
      | xs -> built (Activity.seq (fresh "seq") xs)
    in
    let is_header t ~header =
      match header with Some (h, _) -> t = h | None -> false
    in
    (* the walk at [t] opens a while: t is on a cycle of another SCC *)
    let entering t ~header =
      cyclic (comp t)
      && match header with Some (_, scc) -> comp t <> scc | None -> true
    in
    (* Successors in the context graph, [None] for the virtual exit: a
       final state leads there, and so do an edge back to the header and
       an edge into another cyclic SCC (a nested while never falls
       through). *)
    let succs q ~header =
      let next =
        List.map
          (fun (_, t) ->
            if is_header t ~header || entering t ~header then None else Some t)
          (Afsa.out_edges a q)
      in
      if Afsa.is_final a q then None :: next else next
    in
    (* [context ~header root], once per loop context. A DFS gives a
       postorder; an edge to a state still open on its stack closes a
       cycle that misses the loop entry, which the walk would go round
       until the depth limit, so it is rejected at once. Immediate
       post-dominators then follow in one pass over the postorder
       (Cooper, Harvey and Kennedy's [intersect]; every successor
       precedes its predecessors, the exit ranks below all). *)
    let contexts = Hashtbl.create 8 in
    let context ~header root =
      let key = Option.map fst header in
      match Hashtbl.find_opt contexts key with
      | Some ctx -> ctx
      | None ->
          let next = Hashtbl.create 64 and open_ = Hashtbl.create 64 in
          let post = ref [] in
          let visit q =
            let s = succs q ~header in
            Hashtbl.replace next q s;
            Hashtbl.replace open_ q true;
            (q, s)
          in
          let rec dfs = function
            | [] -> ()
            | (q, []) :: up ->
                Hashtbl.replace open_ q false;
                post := q :: !post;
                dfs up
            | (q, None :: rest) :: up -> dfs ((q, rest) :: up)
            | (q, Some t :: rest) :: up -> (
                match Hashtbl.find_opt open_ t with
                | None -> dfs (visit t :: (q, rest) :: up)
                | Some true -> too_deep ()
                | Some false -> dfs ((q, rest) :: up))
          in
          dfs [ visit root ];
          let rank = Hashtbl.create 64 and join = Hashtbl.create 64 in
          let rank_of = function None -> -1 | Some q -> Hashtbl.find rank q in
          let rec intersect x y =
            if Option.equal Int.equal x y then x
            else if rank_of x > rank_of y then
              intersect (Hashtbl.find join (Option.get x)) y
            else intersect x (Hashtbl.find join (Option.get y))
          in
          List.iteri
            (fun i q ->
              Hashtbl.replace rank q i;
              Hashtbl.replace join q
                (match Hashtbl.find next q with
                | [] -> None (* dead: the walk rejects it *)
                | s :: rest -> List.fold_left intersect s rest))
            (List.rev !post);
          let ctx = { header; join } in
          Hashtbl.replace contexts key ctx;
          ctx
    in
    (* [chain q ~ctx ~stop]: activities from state q until the loop
       header is re-reached (→ iteration ends), a terminal state is
       reached (→ Terminate), the walk reaches [stop] (the join of an
       enclosing choice, emitted after it), or it continues past the
       SCC. *)
    let rec chain q ~ctx ~stop ~depth : Activity.t list =
      if depth > 10_000 then too_deep ();
      if entering q ~header:ctx.header then begin
        (* wrap the SCC in a non-terminating while; exits terminate or
           continue outside and never return, so they end iterations
           via Terminate/continuation inside branches *)
        let header = Some (q, comp q) in
        let ctx = context ~header q in
        let body = seq_of (body_at q ~ctx ~stop:None ~depth:(depth + 1)) in
        [ built (Activity.while_ (fresh "loop") ~cond:"1 = 1" body) ]
      end
      else body_at q ~ctx ~stop ~depth
    and body_at q ~ctx ~stop ~depth =
      let header = ctx.header in
      let final = Afsa.is_final a q in
      (* a branch that ends at a terminal final state must terminate
         explicitly when we are inside a loop *)
      let ends_dead t =
        Afsa.out_edges a t = [] && Afsa.is_final a t && header <> None
      in
      let cut t ~stop = is_header t ~header || stop = Some t in
      let continue_from ~stop (l, t) =
        let act = act_of l in
        if cut t ~stop then [ act ]
        else if ends_dead t then [ act; built Activity.Terminate ]
        else act :: chain t ~ctx ~stop ~depth:(depth + 1)
      in
      let edges =
        List.filter_map
          (fun (sym, t) ->
            match sym with Sym.Eps -> None | Sym.L l -> Some (l, t))
          (Afsa.out_edges a q)
      in
      match (edges, final) with
      | [], true -> if header <> None then [ built Activity.Terminate ] else []
      | [], false -> raise (Unsupported "skeleton: dead non-final state")
      | [ e ], false -> continue_from ~stop e
      | _ ->
          let dirs =
            List.sort_uniq compare (List.map (fun (l, _) -> dir_of l) edges)
          in
          let mixed = List.length dirs > 1 in
          if mixed then
            raise
              (Unsupported
                 "skeleton: state mixes sends and receives (not expressible \
                  as a single BPEL choice)")
          else begin
            (* where the branches meet again; [None] at a final state,
               whose stop-or-go switch ends the walk *)
            let join = Option.join (Hashtbl.find_opt ctx.join q) in
            let choice =
              match dirs with
              | [ `Recv ] ->
                  built
                    (Activity.pick (fresh "pick")
                       (List.map
                          (fun ((l : Label.t), t) ->
                            let rest =
                              if cut t ~stop:join then built Activity.Empty
                              else if ends_dead t then built Activity.Terminate
                              else
                                seq_of
                                  (chain t ~ctx ~stop:join ~depth:(depth + 1))
                            in
                            Activity.on_message ~partner:l.sender ~op:l.msg rest)
                          edges))
              | _ ->
                  built
                    (Activity.switch (fresh "switch")
                       (List.map
                          (fun ((l : Label.t), t) ->
                            Activity.branch
                              ~cond:(fresh "case")
                              (seq_of (continue_from ~stop:join (l, t))))
                          edges))
            in
            if final then
              (* accept-and-continue: stopping here is an option *)
              [
                built
                  (Activity.switch (fresh "stop_or_go")
                     [
                       Activity.branch ~cond:"continue" choice;
                       Activity.branch ~cond:"otherwise"
                         (built
                            (if header <> None then Activity.Terminate
                             else Activity.Empty));
                     ]);
              ]
            else
              match join with
              | Some j when stop <> Some j ->
                  (* the shared continuation, once *)
                  choice :: chain j ~ctx ~stop ~depth:(depth + 1)
              | _ -> [ choice ]
          end
    in
    try
      let start = Afsa.start a in
      let body =
        seq_of
          (chain start ~ctx:(context ~header:None start) ~stop:None ~depth:0)
      in
      (* registry: every operation under the party that owns it *)
      let ops_of p =
        Afsa.alphabet a
        |> List.filter_map (fun (l : Label.t) ->
               if String.equal l.receiver p || String.equal l.sender p then
                 Some (Types.async l.msg)
               else None)
        |> List.sort_uniq compare
      in
      let parties =
        Chorev_afsa.View.parties a |> List.sort_uniq String.compare
      in
      let registry =
        Types.registry
          (List.map
             (fun p -> (p, { Types.pt_name = p ^ "Port"; ops = ops_of p }))
             parties)
      in
      Ok
        (Process.make ~name ~party ~registry
           (built (Activity.seq (name ^ " process") [ body ])))
    with Unsupported msg -> Error msg
  end
