(** The propagation pipelines of Sec. 5.2 (variant additive) and
    Sec. 5.3 (variant subtractive), steps 1–5.

    Given the change originator's new public process [A'] and one
    partner (private process [P_B], public process [B] with its mapping
    table), the engine:

    1. takes the partner's view [τ_B(A')] and computes the delta —
       added sequences [τ_B(A') \ B] for the additive case, removed
       sequences [B \ τ_B(A')] for the subtractive case (the paper's
       Sec. 5.3 writes [τ(A') \ B] for both, but its own Fig. 17a is
       the removed-sequences automaton [B \ τ(A')]; see DESIGN.md);
    2. computes the target public process — [B' = delta ∪ B] resp.
       [B' = B \ delta];
    3. localizes divergences by parallel traversal of [B] and [B']
       and maps them to private blocks through the mapping table;
    4. derives adaptation suggestions and (optionally) auto-applies
       them to the partner's private process;
    5. regenerates the partner's public process and re-checks bilateral
       consistency against [τ_B(A')].

    When the re-check fails the engine retries with the remaining
    applicable suggestion subsets (the paper's "go back to the previous
    step and repeat it with a modified set of changes").

    Every pipeline step runs inside a trace span named after the
    corresponding Fig. 4 step ([view], [delta], [localize], [suggest],
    [apply] with its last-resort [resynthesize], [re-check]); see
    DESIGN.md §7. *)

module Afsa = Chorev_afsa.Afsa
module Obs = Chorev_obs.Obs
module Metrics = Chorev_obs.Metrics
module Budget = Chorev_guard.Budget
module Degrade = Chorev_guard.Degrade
module Config = Chorev_config.Config
module Memo = Chorev_cache.Memo
open Chorev_bpel

type direction = Additive | Subtractive

type analysis = {
  view_new : Afsa.t;  (** τ_partner(A') *)
  delta : Afsa.t;  (** added or removed sequences *)
  target_public : Afsa.t;  (** computed B' *)
  divergences : Localize.divergence list;
  suggestions : Suggest.t list;
  witness : Chorev_afsa.Label.t list option;
      (** shortest distinguishing witness trace of [delta], filled in
          when the pipeline ends inconsistent (a concrete message
          sequence the partner cannot follow, not just a verdict) *)
  degraded : Degrade.t list;
      (** budget trips during steps 1–4 and the fallbacks taken *)
}

type outcome = {
  direction : direction;
  analysis : analysis;
  adapted : Process.t option;  (** auto-applied private process *)
  adapted_public : Afsa.t option;
  consistent_after : bool;
  degraded : Degrade.t list;
      (** everything in [analysis.degraded] plus re-check, resynthesis
          and round trips *)
}

let c_runs = Metrics.counter "propagate.runs"
let c_suggestions = Metrics.counter "propagate.suggestions.generated"
let c_applied = Metrics.counter "propagate.suggestions.applied"
let c_retries = Metrics.counter "propagate.retries"
let c_resynthesized = Metrics.counter "propagate.resynthesized"

let str s = Chorev_obs.Sink.Str s
let int i = Chorev_obs.Sink.Int i

let direction_name = function
  | Additive -> "additive"
  | Subtractive -> "subtractive"

(* One algebra step under its own budget, drawn from the round budget:
   the child's spend is charged back, so round fuel bounds the sum of
   all steps. [Budget.charge] re-raises at round level when the round
   itself trips — caught by the [`Round]-level run in {!run}. *)
let op_run ~round ~op_spec f =
  let b = Budget.sub round op_spec in
  let r = Budget.run b f in
  Budget.charge round (Budget.spent b);
  r

let empty_like alphabet =
  Afsa.make ~alphabet ~start:0 ~finals:[] ~edges:[] ~ann:[] ()

(** Compute delta, target, divergences and suggestions for partner
    [partner_private] (whose current public process and table are
    [public_b]/[table_b]) facing the originator's new public process
    [a']. The [direction] decides additive vs subtractive treatment. *)
let analyze ?(round = Budget.unlimited) ?(op_budget = Budget.spec_unlimited)
    ~direction ~a' ~partner_private ~public_b ~table_b () =
  let op_spec = op_budget in
  let me = Process.party partner_private in
  let view_new, deg_view =
    Obs.span "view" ~attrs:[ ("observer", str me) ] @@ fun () ->
    match op_run ~round ~op_spec (fun () -> Memo.tau ~observer:me a') with
    | `Done v -> (v, [])
    | `Exceeded info -> (
        (* degrade: the un-minimized view is language-equal, just larger *)
        match
          op_run ~round ~op_spec (fun () ->
              Chorev_afsa.View.tau_raw ~observer:me a')
        with
        | `Done v -> (v, [ Degrade.Skipped_minimization info ])
        | `Exceeded info2 ->
            ( Chorev_afsa.View.relabel ~observer:me a',
              [
                Degrade.Skipped_minimization info;
                Degrade.Aborted_step { step = "view"; info = info2 };
              ] ))
  in
  let (delta, target), deg_delta =
    Obs.span "delta" ~attrs:[ ("direction", str (direction_name direction)) ]
    @@ fun () ->
    match
      op_run ~round ~op_spec (fun () ->
          match direction with
          | Additive ->
              let d = Memo.difference view_new public_b in
              let t = Afsa.trim (Memo.union d public_b) in
              (d, t)
          | Subtractive ->
              let d = Memo.difference public_b view_new in
              let t = Afsa.trim (Memo.difference public_b d) in
              (d, t))
    with
    | `Done dt -> (dt, [])
    | `Exceeded info ->
        (* conservative: no computable delta — keep the partner as-is *)
        ( (empty_like (Afsa.alphabet public_b), public_b),
          [ Degrade.Aborted_step { step = "delta"; info } ] )
  in
  let (divergences, suggestions), deg_local =
    match
      op_run ~round ~op_spec (fun () ->
          let divergences =
            Obs.span "localize" @@ fun () ->
            Localize.diverge ~old_public:public_b ~new_public:target
              ~table:table_b
          in
          let suggestions =
            Obs.span "suggest"
              ~attrs:[ ("divergences", int (List.length divergences)) ]
            @@ fun () ->
            match direction with
            | Additive ->
                List.concat_map
                  (fun d ->
                    Suggest.additive partner_private ~old_public:public_b
                      ~target d)
                  divergences
            | Subtractive ->
                List.concat_map
                  (fun d -> Suggest.subtractive partner_private d)
                  divergences
          in
          (divergences, suggestions))
    with
    | `Done r -> (r, [])
    | `Exceeded info ->
        (([], []), [ Degrade.Aborted_step { step = "localize"; info } ])
  in
  Metrics.add c_suggestions (List.length suggestions);
  {
    view_new;
    delta;
    target_public = target;
    divergences;
    suggestions;
    witness = None;
    degraded = deg_view @ deg_delta @ deg_local;
  }

(* Power-set-free retry sets: all applicable suggestions together plus
   each one alone, tried in [List.sort_uniq compare] order — so the set
   of all comes right after the single of its first suggestion. The
   first set that re-checks consistent wins, so this order is part of
   the output. Suggestion lists are short. *)
let retry_sets suggestions =
  let applicable = List.filter (fun s -> not (Suggest.is_manual s)) suggestions in
  match applicable with
  | [] -> []
  | [ s ] -> [ [ s ] ]
  | all ->
      let singles = List.map (fun s -> [ s ]) all in
      (all :: singles) |> List.sort_uniq compare

let apply_all set p =
  List.fold_left
    (fun acc s -> Result.bind acc (Suggest.apply s))
    (Ok p) set

(** Run the full pipeline for one partner under [config]. *)
let run ?(config = Config.default) ~direction ~a' ~partner_private () =
  Metrics.incr c_runs;
  let me = Process.party partner_private in
  Obs.span "propagate"
    ~attrs:
      [ ("partner", str me); ("direction", str (direction_name direction)) ]
  @@ fun () ->
  let public_b, table_b = Memo.generate partner_private in
  let round = Budget.of_spec config.round_budget in
  let op_spec = config.op_budget in
  let pipeline () =
    let analysis =
      analyze ~round ~op_budget:op_spec ~direction ~a' ~partner_private
        ~public_b ~table_b ()
    in
    (* Re-check under an op budget: `Unknown is treated as inconsistent
       — a partner is never adapted on a verdict we could not afford.
       [late_deg] collects the re-check and resynthesis trips. *)
    let late_deg = ref [] in
    let consistent_with p' =
      Obs.span "re-check" @@ fun () ->
      let b = Budget.sub round op_spec in
      if Budget.is_unlimited b then
        (* no fuel/deadline in force: the memoized verdict is exact and
           nothing needs charging back *)
        Memo.consistent p' analysis.view_new
      else
      let r = Chorev_afsa.Consistency.decide ~budget:b p' analysis.view_new in
      Budget.charge round (Budget.spent b);
      match r with
      | `Consistent -> true
      | `Inconsistent -> false
      | `Unknown info ->
          late_deg :=
            Degrade.Unknown_verdict { step = "re-check"; info } :: !late_deg;
          false
    in
    let finish ~adapted ~adapted_public ~consistent_after =
      (* On failure, extract the shortest distinguishing witness from
         the delta so the report carries a concrete trace. The BFS does
         not tick budgets, so fuel accounting is unchanged. *)
      let analysis =
        if consistent_after then analysis
        else
          let witness =
            Obs.span "witness" @@ fun () ->
            match Suggest.witness analysis.delta with
            | None -> None
            | Some w ->
                (* structured copy of the trace for span consumers *)
                Obs.span "witness.trace"
                  ~attrs:[ ("trace", str (Suggest.witness_to_string w)) ]
                  (fun () -> ());
                Some w
          in
          { analysis with witness }
      in
      {
        direction;
        analysis;
        adapted;
        adapted_public;
        consistent_after;
        degraded = analysis.degraded @ List.rev !late_deg;
      }
    in
    if not config.auto_apply then
      finish ~adapted:None ~adapted_public:None
        ~consistent_after:(consistent_with public_b)
    else
      let attempt set =
        Metrics.incr c_retries;
        match apply_all set partner_private with
        | Error _ -> None
        | Ok p' ->
            let pub' = Memo.public p' in
            if consistent_with pub' then Some (p', pub') else None
      in
      (* last resort: re-synthesize the whole private process from the
         computed target public process (Skeleton), at the price of
         discarding the private structure (hence tried only after every
         targeted edit failed). The result regenerates the target's
         plain language, but its annotations are re-derived and the
         target itself may fall short of the view, so the re-check
         decides. Synthesis ticks one unit per activity under an op
         budget; a trip keeps the partner as-is. *)
      let synthesized () =
        match
          Obs.span "resynthesize" @@ fun () ->
          op_run ~round ~op_spec (fun () ->
              Chorev_mapping.Skeleton.synthesize
                ~name:(Process.name partner_private ^ "-resynthesized")
                ~party:me analysis.target_public)
        with
        | `Exceeded info ->
            late_deg :=
              Degrade.Aborted_step { step = "resynthesize"; info } :: !late_deg;
            None
        | `Done (Error _) -> None
        | `Done (Ok p') ->
            let pub' = Memo.public p' in
            if consistent_with pub' then begin
              Metrics.incr c_resynthesized;
              Some (p', pub')
            end
            else None
      in
      let result =
        Obs.span "apply"
          ~attrs:[ ("suggestions", int (List.length analysis.suggestions)) ]
        @@ fun () ->
        match List.find_map attempt (retry_sets analysis.suggestions) with
        | Some r -> Some r
        | None -> synthesized ()
      in
      match result with
      | Some (p', pub') ->
          Metrics.incr c_applied;
          finish ~adapted:(Some p') ~adapted_public:(Some pub')
            ~consistent_after:true
      | None ->
          finish ~adapted:None ~adapted_public:None
            ~consistent_after:(consistent_with public_b)
  in
  match Budget.run round pipeline with
  | `Done outcome -> outcome
  | `Exceeded info ->
      (* The whole round ran dry: report the partner untouched, with
         enough analysis for the caller to see what was attempted. *)
      let degraded = [ Degrade.Aborted_step { step = "round"; info } ] in
      {
        direction;
        analysis =
          {
            view_new = Chorev_afsa.View.relabel ~observer:me a';
            delta = empty_like (Afsa.alphabet public_b);
            target_public = public_b;
            divergences = [];
            suggestions = [];
            witness = None;
            degraded;
          };
        adapted = None;
        adapted_public = None;
        consistent_after = false;
        degraded;
      }

(** Decide the direction from the classification verdict: a purely
    subtractive change propagates subtractively, anything that adds
    sequences propagates additively (a change that both adds and
    removes is treated additively first; the re-check loop catches the
    rest). *)
let direction_of_framework (f : Chorev_change.Classify.framework) =
  if f.additive then Additive else Subtractive

let pp_outcome ppf o =
  Fmt.pf ppf
    "@[<v>%s propagation: %d divergence(s), %d suggestion(s), adapted=%b, \
     consistent_after=%b%a%a@]"
    (direction_name o.direction)
    (List.length o.analysis.divergences)
    (List.length o.analysis.suggestions)
    (Option.is_some o.adapted)
    o.consistent_after
    (fun ppf -> function
      | None -> ()
      | Some w -> Fmt.pf ppf ",@ witness: %a" Suggest.pp_witness w)
    o.analysis.witness
    (fun ppf -> function
      | [] -> ()
      | ds -> Fmt.pf ppf ", degraded: %a" Degrade.pp_list ds)
    o.degraded
