(* The synthesizer that Chorev_mapping.Skeleton replaced, kept verbatim
   as the oracle of test_skeleton's differential test: it unfolds the
   automaton's DAG into a tree (exponential on shared continuations)
   and rejects a cycle that misses its loop entry only at depth 10,000.
   No production code calls it. *)

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
      [switch].

    The synthesized process regenerates a public process with the same
    plain language as the input ({!Public_gen} round-trip, tested);
    mandatory annotations are re-derived from the recovered structure
    and may strengthen ones absent in a hand-built input. *)

module Afsa = Chorev_afsa.Afsa
module Label = Chorev_afsa.Label
module Sym = Chorev_afsa.Sym
module ISet = Afsa.ISet
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
    let fresh =
      let n = ref 0 in
      fun base ->
        incr n;
        Printf.sprintf "%s%d" base !n
    in
    (* activity for one edge label from the owner's perspective *)
    let act_of (l : Label.t) =
      if String.equal l.receiver party then
        (`Recv, Activity.receive ~partner:l.sender ~op:l.msg)
      else (`Send, Activity.invoke ~partner:l.receiver ~op:l.msg)
    in
    let seq_of = function
      | [] -> Activity.Empty
      | [ x ] -> x
      | xs -> Activity.seq (fresh "seq") xs
    in
    (* [chain q ~header]: activities from state q until the loop header
       is re-reached (→ iteration ends), a terminal state is reached
       (→ Terminate), or the walk continues past the SCC. [header] is
       [Some (h, scc)] inside the loop rooted at h. *)
    let rec chain q ~header ~depth : Activity.t list =
      if depth > 10_000 then raise (Unsupported "skeleton: automaton too deep");
      (match header with
      | Some (h, _) when q = h ->
          (* back at the loop header: end of this iteration *)
          [ Activity.Empty ]
      | _ -> chain_at q ~header ~depth)
    and chain_at q ~header ~depth =
      let entering_cycle =
        cyclic (comp q)
        && (match header with
           | Some (_, scc) -> comp q <> scc (* a different, nested loop *)
           | None -> true)
      in
      if entering_cycle then begin
        (* wrap the SCC in a non-terminating while; exits terminate or
           continue outside and never return, so they end iterations
           via Terminate/continuation inside branches *)
        let body =
          seq_of (body_at q ~header:(Some (q, comp q)) ~depth:(depth + 1))
        in
        [ Activity.while_ (fresh "loop") ~cond:"1 = 1" body ]
      end
      else body_at q ~header ~depth
    and body_at q ~header ~depth =
      let out = Afsa.out_edges a q in
      let final = Afsa.is_final a q in
      let continue_from (l, t) =
        let _, act = act_of l in
        let rest =
          match header with
          | Some (h, _) when t = h -> []
          | _ -> chain t ~header ~depth:(depth + 1)
        in
        (* a branch that ends at a terminal final state must terminate
           explicitly when we are inside a loop *)
        let ends_dead =
          Afsa.out_edges a t = [] && Afsa.is_final a t && header <> None
        in
        if ends_dead then [ act; Activity.Terminate ] else act :: rest
      in
      let edges =
        List.filter_map
          (fun (sym, t) ->
            match sym with Sym.Eps -> None | Sym.L l -> Some (l, t))
          out
      in
      match (edges, final) with
      | [], true -> if header <> None then [ Activity.Terminate ] else []
      | [], false -> raise (Unsupported "skeleton: dead non-final state")
      | [ e ], false -> continue_from e
      | _ ->
          let dirs =
            List.sort_uniq compare (List.map (fun (l, _) -> fst (act_of l)) edges)
          in
          let mixed = List.length dirs > 1 in
          if mixed then
            raise
              (Unsupported
                 "skeleton: state mixes sends and receives (not expressible \
                  as a single BPEL choice)")
          else begin
            let choice =
              match dirs with
              | [ `Recv ] ->
                  Activity.pick (fresh "pick")
                    (List.map
                       (fun ((l : Label.t), t) ->
                         let rest =
                           match header with
                           | Some (h, _) when t = h -> Activity.Empty
                           | _ ->
                               let c = chain t ~header ~depth:(depth + 1) in
                               let ends_dead =
                                 Afsa.out_edges a t = []
                                 && Afsa.is_final a t && header <> None
                               in
                               if ends_dead then Activity.Terminate
                               else seq_of c
                         in
                         Activity.on_message ~partner:l.sender ~op:l.msg rest)
                       edges)
              | _ ->
                  Activity.switch (fresh "switch")
                    (List.map
                       (fun ((l : Label.t), t) ->
                         Activity.branch
                           ~cond:(fresh "case")
                           (seq_of (continue_from (l, t))))
                       edges)
            in
            if final then
              (* accept-and-continue: stopping here is an option *)
              [
                Activity.switch (fresh "stop_or_go")
                  [
                    Activity.branch ~cond:"continue" choice;
                    Activity.branch ~cond:"otherwise"
                      (if header <> None then Activity.Terminate
                       else Activity.Empty);
                  ];
              ]
            else [ choice ]
          end
    in
    try
      let body =
        seq_of (chain (Afsa.start a) ~header:None ~depth:0)
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
           (Activity.seq (name ^ " process") [ body ]))
    with Unsupported msg -> Error msg
  end
