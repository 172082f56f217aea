(** The amendment half of the self-healing repair loop.

    When a propagation step leaves a partner inconsistent, the engine's
    difference automaton is a machine-checkable counterexample: its
    shortest word is a concrete message sequence the partner cannot
    follow (additive) or must stop producing (subtractive). The search
    here turns that witness into candidate edits of the partner's
    private process — smallest edit first — and re-verifies each
    candidate through the same consistency decision procedure the
    engine uses, under one {!Chorev_guard.Budget} minted per search so
    the whole loop is fuel-deterministic and degrades to
    "unrepairable" instead of hanging. *)

module Afsa = Chorev_afsa.Afsa
module Label = Chorev_afsa.Label
module Budget = Chorev_guard.Budget
module Degrade = Chorev_guard.Degrade
module Obs = Chorev_obs.Obs
module Metrics = Chorev_obs.Metrics
module Ops = Chorev_change.Ops
module Suggest = Chorev_propagate.Suggest
module Engine = Chorev_propagate.Engine
open Chorev_bpel

type candidate = {
  ops : Ops.t list;  (** applied in order; failure skips the candidate *)
  cost : int;  (** number of primitive edits *)
  description : string;
}

type result = {
  repaired : (Process.t * Afsa.t) option;
      (** amended private process and its regenerated public process,
          when a candidate restored pairwise consistency *)
  attempts : int;  (** candidates actually verified *)
  fuel_spent : int;
  witness : Label.t list option;
      (** the counterexample trace the candidates were anchored on *)
  chosen : string option;  (** description of the winning candidate *)
  degraded : Degrade.t list;
      (** non-empty iff the search ran out of budget before exhausting
          the candidate queue *)
}

let max_candidates = 64

let c_attempts = Metrics.counter "repair.attempts"
let c_repaired = Metrics.counter "repair.repaired"

let str s = Chorev_obs.Sink.Str s
let int i = Chorev_obs.Sink.Int i

(* ---------------------- candidate generation --------------------- *)

(* Witness labels in first-occurrence order, deduplicated. *)
let distinct_labels w =
  List.fold_left
    (fun acc l -> if List.exists (Label.equal l) acc then acc else l :: acc)
    [] w
  |> List.rev

(* The first (preorder-topmost) sequence of the body — the anchor for
   positional insertions. *)
let first_sequence body =
  Activity.all_nodes body
  |> List.find_map (fun (path, a) ->
         match a with
         | Activity.Sequence (_, items) -> Some (path, List.length items)
         | _ -> None)

let lstr = Label.to_string

(* Candidate edits for one missing label (additive direction): insert
   the matching receive/invoke at every position of the topmost
   sequence, then relax an existing receive into a pick (or extend a
   pick / add a switch branch) so the new message becomes an
   alternative. All cost-1. *)
let additive_singles (p : Process.t) (l : Label.t) : candidate list =
  let me = Process.party p in
  let body = Process.body p in
  let new_act, verb =
    if String.equal l.receiver me then
      (Activity.Receive { Activity.partner = l.sender; op = l.msg },
       "insert a receive for")
    else if String.equal l.sender me then
      (Activity.Invoke { Activity.partner = l.receiver; op = l.msg },
       "insert an invoke of")
    else (Activity.Empty, "")
  in
  if new_act = Activity.Empty then []
  else
    let inserts =
      match first_sequence body with
      | None -> []
      | Some (path, n) ->
          List.init (n + 1) (fun pos ->
              {
                ops = [ Ops.Insert_activity { path; pos; act = new_act } ];
                cost = 1;
                description =
                  Fmt.str "%s %s at position %d" verb (lstr l) pos;
              })
    in
    let relaxations =
      if String.equal l.receiver me then
        let arm = ({ Activity.partner = l.sender; op = l.msg }, Activity.Empty) in
        Activity.all_nodes body
        |> List.filter_map (fun (path, a) ->
               match a with
               | Activity.Receive _ ->
                   Some
                     {
                       ops =
                         [
                           Ops.Receive_to_pick
                             { path; name = "choice:" ^ l.msg; arms = [ arm ] };
                         ];
                       cost = 1;
                       description =
                         Fmt.str "relax the receive at %a into a pick also \
                                  accepting %s"
                           Ops.pp_path path (lstr l);
                     }
               | Activity.Pick _ ->
                   Some
                     {
                       ops = [ Ops.Add_pick_arm { path; arm } ];
                       cost = 1;
                       description =
                         Fmt.str "add an onMessage arm for %s to the pick at %a"
                           (lstr l) Ops.pp_path path;
                     }
               | _ -> None)
      else
        Activity.all_nodes body
        |> List.filter_map (fun (path, a) ->
               match a with
               | Activity.Switch _ ->
                   Some
                     {
                       ops =
                         [
                           Ops.Add_switch_branch
                             {
                               path;
                               branch =
                                 Activity.branch ~cond:("may send " ^ l.msg)
                                   (Activity.invoke ~partner:l.receiver
                                      ~op:l.msg);
                             };
                         ];
                       cost = 1;
                       description =
                         Fmt.str "add a switch branch sending %s at %a"
                           (lstr l) Ops.pp_path path;
                     }
               | _ -> None)
    in
    inserts @ relaxations

(* Candidate edits for one forbidden label (subtractive direction):
   delete the communication that produces it, or unroll the loop that
   repeats it. All cost-1. *)
let subtractive_singles (p : Process.t) (l : Label.t) : candidate list =
  let body = Process.body p in
  let deletions =
    match Process.comm_for_label p l with
    | Some (path, _, _) when path <> [] -> (
        let parent = List.filteri (fun i _ -> i < List.length path - 1) path in
        let index = List.nth path (List.length path - 1) in
        match Activity.find_at parent body with
        | Some (Activity.Sequence _) ->
            [
              {
                ops = [ Ops.Delete_activity { path = parent; index } ];
                cost = 1;
                description =
                  Fmt.str "delete the communication for %s at %a" (lstr l)
                    Ops.pp_path path;
              };
            ]
        | _ ->
            [
              {
                ops = [ Ops.Replace_activity { path; by = Activity.Empty } ];
                cost = 1;
                description =
                  Fmt.str "blank out the communication for %s at %a" (lstr l)
                    Ops.pp_path path;
              };
            ])
    | _ -> []
  in
  let unrolls =
    Activity.all_nodes body
    |> List.filter_map (fun (path, a) ->
           match a with
           | Activity.While _ ->
               Some
                 {
                   ops =
                     [
                       Ops.Unroll_loop_once
                         {
                           path;
                           switch_name = "iterate once?";
                           suffix = Activity.Empty;
                         };
                     ];
                   cost = 1;
                   description =
                     Fmt.str "unroll the loop at %a once" Ops.pp_path path;
                 }
           | _ -> None)
  in
  deletions @ unrolls

(* All ordered pairs of distinct singles (cost 2). The second edit's
   paths are interpreted against the once-edited process; pairs whose
   ops no longer apply just fail and are skipped by the search. *)
let pairs singles =
  List.concat_map
    (fun a ->
      List.filter_map
        (fun b ->
          if a == b then None
          else
            Some
              {
                ops = a.ops @ b.ops;
                cost = a.cost + b.cost;
                description = a.description ^ " + " ^ b.description;
              })
        singles)
    singles

(** The bounded candidate queue for one witness, smallest edit first:
    every single-edit candidate (in witness-label order), then every
    ordered pair, the whole queue truncated at [max_candidates].
    Deterministic: depends only on the process and the witness. *)
let candidates ~(direction : Engine.direction) (p : Process.t)
    (w : Label.t list) : candidate list =
  let per_label =
    match direction with
    | Engine.Additive -> additive_singles p
    | Engine.Subtractive -> subtractive_singles p
  in
  let singles = List.concat_map per_label (distinct_labels w) in
  List.filteri (fun i _ -> i < max_candidates) (singles @ pairs singles)

(* --------------------------- the search --------------------------- *)

let apply_ops ops p =
  List.fold_left (fun acc op -> Result.bind acc (Ops.apply op)) (Ok p) ops

(** Run the amendment search for one failed bilateral check.

    [view_new] is what the partner must be consistent with (τ_P(A')),
    [delta] the difference automaton the witness is extracted from.
    The search budget is minted here from [budget] — the caller invokes
    [search] inside the pool task, so fuel-only budgets trip
    identically at every pool size. *)
let search ~budget ~direction ~partner_private ~view_new ~delta () : result =
  let me = Process.party partner_private in
  Obs.span "repair.amend" ~attrs:[ ("partner", str me) ] @@ fun () ->
  let witness = Suggest.witness delta in
  let b = Budget.of_spec budget in
  let attempts = ref 0 in
  let searched () =
    match witness with
    | None -> None
    | Some w ->
        let queue = candidates ~direction partner_private w in
        Obs.span "repair.queue"
          ~attrs:[ ("candidates", int (List.length queue)) ] (fun () -> ());
        List.find_map
          (fun c ->
            Budget.tick b;
            incr attempts;
            Metrics.incr c_attempts;
            match apply_ops c.ops partner_private with
            | Error _ -> None
            | Ok p' ->
                let pub' = Chorev_cache.Memo.public p' in
                let ok =
                  if Budget.is_unlimited b then
                    Chorev_cache.Memo.consistent pub' view_new
                  else
                    match
                      Chorev_afsa.Consistency.decide ~budget:b pub' view_new
                    with
                    | `Consistent -> true
                    | `Inconsistent | `Unknown _ -> false
                in
                if ok then Some (p', pub', c.description) else None)
          queue
  in
  let finish ?(degraded = []) found =
    match found with
    | Some (p', pub', description) ->
        Metrics.incr c_repaired;
        {
          repaired = Some (p', pub');
          attempts = !attempts;
          fuel_spent = Budget.spent b;
          witness;
          chosen = Some description;
          degraded;
        }
    | None ->
        {
          repaired = None;
          attempts = !attempts;
          fuel_spent = Budget.spent b;
          witness;
          chosen = None;
          degraded;
        }
  in
  match Budget.run b searched with
  | `Done found -> finish found
  | `Exceeded info ->
      finish None
        ~degraded:[ Degrade.Aborted_step { step = "repair"; info } ]

let repaired_process r = Option.map fst r.repaired

let pp_result ppf r =
  Fmt.pf ppf "@[<v>repair: %s after %d attempt(s)%a%a%a@]"
    (match r.repaired with Some _ -> "amended" | None -> "unrepairable")
    r.attempts
    (fun ppf -> function
      | Some c -> Fmt.pf ppf ",@ chose: %s" c
      | None -> ())
    r.chosen
    (fun ppf -> function
      | Some w -> Fmt.pf ppf ",@ witness: %a" Suggest.pp_witness w
      | None -> ())
    r.witness
    (fun ppf -> function
      | [] -> ()
      | ds -> Fmt.pf ppf ", degraded: %a" Degrade.pp_list ds)
    r.degraded
