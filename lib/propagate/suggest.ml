(** Adaptation suggestions for the partner's private process.

    "Due to the autonomy of the partners … an automatic adaptation of
    private processes is generally not desired. Nevertheless the system
    should adequately assist process engineers in accomplishing this
    task by suggesting respective adaptations" (Sec. 3.1). Each
    suggestion pairs a human-readable description with a concrete
    {!Chorev_change.Ops.t} that *can* be auto-applied (our tests and the
    re-check loop of {!Engine} do so); suggestions the heuristics cannot
    mechanize are emitted as [Manual]. *)

module Afsa = Chorev_afsa.Afsa
module Label = Chorev_afsa.Label
module Sym = Chorev_afsa.Sym
open Chorev_bpel

type t =
  | Apply of { description : string; op : Chorev_change.Ops.t }
  | Manual of string

let describe = function
  | Apply { description; _ } -> description
  | Manual d -> d ^ " (manual)"

let pp ppf s = Fmt.string ppf (describe s)

(* ------------------------ witness traces -------------------------- *)

(** Shortest distinguishing witness: a shortest word of the difference
    automaton, i.e. a concrete message sequence the target public
    process requires (additive) or forbids (subtractive) that the
    partner's current public process does not. [None] when the delta is
    language-empty. The repair loop anchors its candidate edits on
    these labels; failure reports print them so the engineer sees a
    trace, not a bare verdict. *)
let witness (delta : Afsa.t) : Label.t list option =
  Chorev_afsa.Trace.shortest delta

let pp_witness ppf = function
  | [] -> Fmt.string ppf "<empty word>"
  | w ->
      Fmt.(list ~sep:(any " . ") (fun ppf l -> string ppf (Label.to_string l)))
        ppf w

let witness_to_string w = Fmt.str "%a" pp_witness w

(* --------------------------- helpers ------------------------------ *)

(* Arm body for a newly handled message: if the delta automaton reaches
   a final state with no continuation after [l], the conversation ends
   there — terminate; otherwise continue with the surrounding flow. *)
let arm_body_from_delta delta (d : Localize.divergence) l =
  let after =
    Afsa.ISet.elements (Afsa.step delta d.state_new (Sym.L l))
  in
  let ends_here q = Afsa.is_final delta q && Afsa.out_edges delta q = [] in
  if after <> [] && List.for_all ends_here after then Activity.Terminate
  else Activity.Empty

(* Sequential insertion: the new message is not an alternative to an
   existing one but an additional step woven into the conversation —
   the old labels at the divergence state reappear in the target right
   after the new label. The private-process edit is then to insert a
   receive/invoke immediately before the activity handling the first
   old label. *)
let sequential_insertion (p : Process.t) ~old_public ~target
    (d : Localize.divergence) (l : Label.t) =
  let after_l =
    Afsa.ISet.elements (Afsa.step target d.state_new (Sym.L l))
  in
  let old_labels =
    Label.Set.remove l
      (Label.Set.of_list (Localize.out_labels old_public d.state_b))
  in
  let resumes q =
    Label.Set.exists (fun o -> not (Afsa.ISet.is_empty (Afsa.step target q (Sym.L o))))
      old_labels
  in
  if after_l = [] || not (List.for_all resumes after_l) then None
  else
    (* find the private activity handling one of the old labels and
       insert before it in its parent sequence *)
    Label.Set.elements old_labels
    |> List.find_map (fun o ->
           match Process.comm_for_label p o with
           | Some (path, _, _) when path <> [] -> (
               let parent = List.filteri (fun i _ -> i < List.length path - 1) path in
               let index = List.nth path (List.length path - 1) in
               match Activity.find_at parent (Process.body p) with
               | Some (Activity.Sequence _) -> Some (parent, index)
               | _ -> None)
           | _ -> None)

(* Insert-after-predecessor: when the sequence-position rule cannot
   anchor (the resumption is handled by a pick trigger, e.g. a loop
   head), anchor on a communication *leading into* the divergence
   state instead: the new activity goes right after it. If that
   activity is itself a whole branch body (its parent is a pick,
   switch or while), it is wrapped into a sequence. Returns the change
   operation directly. *)
let insert_after_predecessor (p : Process.t) ~old_public
    (d : Localize.divergence) (act_to_insert : Activity.t) =
  let incoming =
    List.filter_map
      (fun (s, sym, t) ->
        match sym with
        | Chorev_afsa.Sym.L l when t = d.state_b && s <> t -> Some l
        | _ -> None)
      (Afsa.edges old_public)
    |> List.sort_uniq Label.compare
  in
  incoming
  |> List.find_map (fun o ->
         match Process.comm_for_label p o with
         | Some ([], _, _) | None -> None
         | Some (path, _, _) -> (
             let parent =
               List.filteri (fun i _ -> i < List.length path - 1) path
             in
             let index = List.nth path (List.length path - 1) in
             match Activity.find_at parent (Process.body p) with
             | Some (Activity.Sequence _) ->
                 Some
                   (Chorev_change.Ops.Insert_activity
                      { path = parent; pos = index + 1; act = act_to_insert })
             | Some (Activity.Pick _ | Activity.Switch _ | Activity.While _)
               -> (
                 match Activity.find_at path (Process.body p) with
                 | Some existing ->
                     Some
                       (Chorev_change.Ops.Replace_activity
                          {
                            path;
                            by =
                              Activity.Sequence
                                ("then:" ^ Activity.kind act_to_insert,
                                 [ existing; act_to_insert ]);
                          })
                 | None -> None)
             | _ -> None))

(* The terminating alternative inside a loop body, used as the suffix
   when unrolling (Fig. 18: both paths finish with the terminate
   exchange). *)
let terminating_branch (body : Activity.t) =
  let ends_in_terminate act =
    let rec last = function
      | Activity.Terminate -> true
      | Activity.Sequence (_, l) -> (
          match List.rev l with [] -> false | x :: _ -> last x)
      | Activity.Scope (_, b) -> last b
      | _ -> false
    in
    last act
  in
  match body with
  | Activity.Switch { branches; _ } ->
      List.find_map
        (fun (b : Activity.branch) ->
          if ends_in_terminate b.body then Some b.body else None)
        branches
  | Activity.Pick { on_messages; _ } ->
      List.find_map
        (fun (_, b) -> if ends_in_terminate b then Some b else None)
        on_messages
  | _ -> None

(* ------------------------- additive rules ------------------------- *)

(** Suggestions for one additive divergence: for each label the partner
    process must newly support, emit every plausible edit, most likely
    first. The engine's re-check loop tries them until one restores
    consistency:

    1. sequential insertion — the old conversation resumes after the
       new message, so a receive/invoke is inserted at the matching
       sequence position;
    2. alternative — the new message replaces an existing receive
       exclusively: extend the pick / turn the receive into a pick (the
       paper's Fig. 14 edit), or add a switch branch for a send;
    3. insert after the predecessor communication (wrapping branch
       bodies into sequences when needed).

    When no rule fires a [Manual] note is produced. *)
let additive (p : Process.t) ~old_public ~target (d : Localize.divergence) :
    t list =
  List.concat_map
    (fun (l : Label.t) ->
      let me = Process.party p in
      let anchor_block =
        match d.anchors with e :: _ -> e.Chorev_mapping.Table.block | [] -> "?"
      in
      let new_act =
        if String.equal l.receiver me then
          Activity.Receive { Activity.partner = l.sender; op = l.msg }
        else Activity.Invoke { Activity.partner = l.receiver; op = l.msg }
      in
      let verb = if String.equal l.receiver me then "a receive for" else "an invoke of" in
      let sequential =
        match sequential_insertion p ~old_public ~target d l with
        | Some (parent, index) ->
            [
              Apply
                {
                  description =
                    Fmt.str
                      "insert %s %s before step %d of the sequence near \
                       block %s"
                      verb (Label.to_string l) index anchor_block;
                  op =
                    Chorev_change.Ops.Insert_activity
                      { path = parent; pos = index; act = new_act };
                };
            ]
        | None -> []
      in
      let alternative =
        if String.equal l.receiver me then
          let body = arm_body_from_delta target d l in
          let alternative_comm =
            List.find_map
              (fun (alt : Label.t) ->
                if Label.equal alt l then None
                else
                  match Process.comm_for_label p alt with
                  | Some (path, `Receive, c) -> Some (path, c)
                  | _ -> None)
              (List.filter
                 (fun (x : Label.t) -> String.equal x.receiver me)
                 (Localize.out_labels old_public d.state_b))
          in
          match alternative_comm with
          | Some (path, _) -> (
              match Activity.find_at path (Process.body p) with
              | Some (Activity.Pick _) ->
                  [
                    Apply
                      {
                        description =
                          Fmt.str
                            "add onMessage arm for %s to the pick at block %s"
                            (Label.to_string l) anchor_block;
                        op =
                          Chorev_change.Ops.Add_pick_arm
                            {
                              path;
                              arm =
                                ( { Activity.partner = l.sender; op = l.msg },
                                  body );
                            };
                      };
                  ]
              | Some (Activity.Receive _) ->
                  [
                    Apply
                      {
                        description =
                          Fmt.str
                            "turn the receive at block %s into a pick also \
                             accepting %s"
                            anchor_block (Label.to_string l);
                        op =
                          Chorev_change.Ops.Receive_to_pick
                            {
                              path;
                              name = "choice:" ^ l.msg;
                              arms =
                                [
                                  ( { Activity.partner = l.sender; op = l.msg },
                                    body );
                                ];
                            };
                      };
                  ]
              | _ -> [])
          | None -> []
        else
          match
            List.find_map
              (fun (e : Chorev_mapping.Table.entry) ->
                match Activity.find_at e.path (Process.body p) with
                | Some (Activity.Switch _) -> Some e
                | _ -> None)
              d.anchors
          with
          | Some e ->
              [
                Apply
                  {
                    description =
                      Fmt.str "add a switch branch sending %s at block %s"
                        (Label.to_string l) e.block;
                    op =
                      Chorev_change.Ops.Add_switch_branch
                        {
                          path = e.path;
                          branch =
                            Activity.branch ~cond:("may send " ^ l.msg)
                              (Activity.invoke ~partner:l.receiver ~op:l.msg);
                        };
                  };
              ]
          | None -> []
      in
      let after_pred =
        match insert_after_predecessor p ~old_public d new_act with
        | Some op ->
            [
              Apply
                {
                  description =
                    Fmt.str
                      "insert %s %s right after the preceding communication \
                       near block %s"
                      verb (Label.to_string l) anchor_block;
                  op;
                };
            ]
        | None -> []
      in
      let candidates = sequential @ alternative @ after_pred in
      if candidates = [] then
        [
          Manual
            (Fmt.str "newly %s %s near block %s"
               (if String.equal l.receiver me then "receive" else "send")
               (Label.to_string l) anchor_block);
        ]
      else candidates)
    d.missing


(* ------------------------ subtractive rules ----------------------- *)

(** Suggestions for one subtractive divergence. The signature case is
    the paper's Sec. 5.3: a loop whose iterations the partner no longer
    supports — unroll it ("the loop has to be removed and additional
    activities have to be added to enumerate the two options"). *)
let subtractive (p : Process.t) (d : Localize.divergence) : t list =
  (* is one of the anchor blocks a while loop? *)
  let loop_anchor =
    List.find_opt
      (fun (e : Chorev_mapping.Table.entry) ->
        match Activity.find_at e.path (Process.body p) with
        | Some (Activity.While _) -> true
        | _ -> false)
      d.anchors
  in
  match loop_anchor with
  | Some e ->
      let suffix =
        match Activity.find_at e.path (Process.body p) with
        | Some (Activity.While { body; _ }) ->
            Option.value ~default:Activity.Empty (terminating_branch body)
        | _ -> Activity.Empty
      in
      [
        Apply
          {
            description =
              Fmt.str
                "unroll the loop at block %s: enumerate at most one iteration \
                 (removed: %a)"
                e.block
                (Fmt.list ~sep:(Fmt.any ", ") (fun ppf l ->
                     Fmt.string ppf (Label.to_string l)))
                d.removed;
            op =
              Chorev_change.Ops.Unroll_loop_once
                { path = e.path; switch_name = "iterate once?"; suffix };
          };
      ]
  | None ->
      List.map
        (fun (l : Label.t) ->
          Manual
            (Fmt.str "stop using %s near block %s" (Label.to_string l)
               (match d.anchors with e :: _ -> e.block | [] -> "?")))
        d.removed

(** Apply a suggestion (no-op for [Manual]). *)
let apply s (p : Process.t) : (Process.t, string) result =
  match s with
  | Apply { op; _ } -> Chorev_change.Ops.apply op p
  | Manual _ -> Ok p

let is_manual = function Manual _ -> true | Apply _ -> false
