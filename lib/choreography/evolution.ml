(** The controlled-evolution pipeline of the paper's Fig. 4, across all
    partners of a choreography.

    A party changes its private process. The pipeline

    1. regenerates the changer's public process ("producing public aFSA
       from scratch");
    2. if the public view is unchanged, stops — no propagation
       ("no propagation necessary");
    3. otherwise classifies the change per partner (Defs. 5/6) on the
       bilateral views;
    4. for variant partners, runs the propagation engine of Sec. 5
       (suggestions + optional auto-apply + re-check);
    5. returns the evolved choreography together with a full report.

    Auto-applied partner adaptations themselves count as changes of
    those partners' private processes; the pipeline re-runs for them
    (transitive propagation) until the choreography is quiescent or
    [max_rounds] (8) rounds have run.

    Tracing: one span per Fig. 4 step — [evolve] wraps the whole run,
    each round is a [round] span containing [regenerate] (public aFSA
    re-derivation) and one [partner] span per partner, which in turn
    contains the [classify] span (from [Classify]) and, for variant
    partners, the engine spans [view]/[delta]/[localize]/[suggest]/
    [apply]/[re-check]. See DESIGN.md §7. *)

module Afsa = Chorev_afsa.Afsa
module Classify = Chorev_change.Classify
module Engine = Chorev_propagate.Engine
module Obs = Chorev_obs.Obs
module Metrics = Chorev_obs.Metrics
module Pool = Chorev_parallel.Pool
module Budget = Chorev_guard.Budget
module Degrade = Chorev_guard.Degrade
module Config = Chorev_config.Config
module Memo = Chorev_cache.Memo
module Lru = Chorev_cache.Lru
open Chorev_bpel

type partner_report = {
  partner : string;
  verdict : Classify.verdict;
  outcome : Engine.outcome option;  (** [None] for invariant changes *)
  repair : Chorev_repair.Amend.result option;
      (** the amendment search run when the engine left this partner
          inconsistent and [config.repair] is set — [Some] with
          [repaired = Some _] means the partner was self-healed *)
  degraded : Degrade.t list;
      (** classification-level budget trips; engine-level ones are on
          [outcome.degraded] *)
}

type round = {
  originator : string;
  public_changed : bool;
  partners : partner_report list;
}

type report = {
  rounds : round list;
  choreography : Model.t;  (** the evolved choreography *)
  consistent : bool;  (** all-pairs consistency afterwards *)
}

(* Cross-round incremental state, owned by the coordinator of one
   [run] (or one journal replay): a cache of whole per-partner pipeline
   steps keyed by everything the step reads, LRU-bounded and confined
   to the coordinator domain — pool tasks never touch it. Repeated pair
   checks are answered by [Memo]'s [pair] table. *)
module Cache = struct
  type step = partner_report * Process.t option
  (** Everything a per-partner pipeline step produces. *)

  type t = (string, step) Lru.t

  let create () = Lru.create ~capacity:4096
  let stats c = [ ("steps", Lru.stats c) ]
end

let max_rounds = 8

let c_rounds = Metrics.counter "evolution.rounds"
let c_runs = Metrics.counter "evolution.runs"

let str s = Chorev_obs.Sink.Str s
let int i = Chorev_obs.Sink.Int i

let classify_partner ~owner ~old_public ~new_public t partner =
  Classify.classify ~owner ~partner ~old_public ~new_public
    ~partner_public:(Memo.tau ~observer:owner (Model.public t partner))
    ()

(* Per-partner step of a round: classification (which emits its own
   [classify] span) and, for variant partners, the propagation engine.
   The step reads only the partner's own public/private processes and
   the owner's old/new publics — never another partner's state — which
   is what makes the per-partner fan-out below sound. Returns the
   report and the partner's auto-adapted private process, if any. *)
let run_partner_step (config : Config.t) ~owner ~old_public ~new_public
    ~partner_public ~partner_private partner =
  Obs.span "partner" ~attrs:[ ("partner", str partner) ] @@ fun () ->
  (* Classification runs under its own op budget, minted here — inside
     the pool task — so the same (input, fuel) pair trips identically
     at every pool size. *)
  let class_budget = Budget.of_spec config.op_budget in
  match
    Budget.run class_budget (fun () ->
        (* [Memo] wrappers stand down by themselves when the ambient
           budget is limited, so routing through them here never
           perturbs fuel accounting. *)
        Classify.classify ~owner ~partner ~old_public ~new_public
          ~partner_public:(Memo.tau ~observer:owner partner_public)
          ())
  with
  | `Exceeded info ->
      (* Unclassifiable within budget: conservatively leave the partner
         untouched and mark the report as degraded. *)
      let verdict =
        {
          Classify.partner;
          framework = { Classify.additive = false; subtractive = false };
          propagation = Classify.Invariant;
        }
      in
      ( {
          partner;
          verdict;
          outcome = None;
          repair = None;
          degraded = [ Degrade.Aborted_step { step = "classify"; info } ];
        },
        None )
  | `Done verdict ->
      if not (Classify.requires_propagation verdict) then
        ({ partner; verdict; outcome = None; repair = None; degraded = [] }, None)
      else
        let direction =
          Engine.direction_of_framework verdict.Classify.framework
        in
        let outcome =
          Engine.run ~config ~direction ~a':new_public ~partner_private ()
        in
        (* Self-healing: when the engine's own retry loop could not
           restore consistency, run the amendment search on the failure
           counterexample. The repair budget is minted inside
           [Amend.search], i.e. inside this pool task — fuel
           determinism across pool sizes is preserved. *)
        let repair =
          match config.repair with
          | Some budget
            when config.auto_apply
                 && Option.is_none outcome.Engine.adapted
                 && not outcome.Engine.consistent_after ->
              Some
                (Chorev_repair.Amend.search ~budget ~direction
                   ~partner_private
                   ~view_new:outcome.Engine.analysis.Engine.view_new
                   ~delta:outcome.Engine.analysis.Engine.delta ())
          | _ -> None
        in
        let adapted =
          match outcome.Engine.adapted with
          | Some _ as a -> a
          | None ->
              Option.bind repair Chorev_repair.Amend.repaired_process
        in
        ({ partner; verdict; outcome = Some outcome; repair; degraded = [] },
         adapted)

(* One round: [changed] replaces [owner]'s private process; returns the
   round report, the updated choreography, and the list of partners
   whose private processes were auto-adapted (next round's
   originators).

   The per-partner steps are independent (see [run_partner_step]), so
   they run as an order-preserving parallel map — each task on private
   {!Afsa.copy} handles of the shared automata — followed by a
   sequential in-partner-order fold applying the model updates, making
   the result structurally identical to the old sequential loop for
   every pool size. *)
(* A whole per-partner step is reusable across rounds iff nothing it
   reads changed and nothing non-deterministic could perturb it: the
   key covers every input ([owner]'s old/new publics, the partner's
   public and private processes, [auto_apply], whether repair is on), and
   the step cache is armed only when no budget could trip
   ([Config.budgeted]) — a cached report would silently skip the
   trip. *)
let step_key (config : Config.t) ~owner ~old_fp ~new_fp ~partner ~partner_public
    ~partner_private =
  String.concat "\x00"
    [
      owner;
      old_fp;
      new_fp;
      partner;
      Chorev_afsa.Fingerprint.digest partner_public;
      Chorev_cache.Intern.process_digest partner_private;
      (if config.auto_apply then "1" else "0");
      (if Option.is_some config.repair then "r1" else "r0");
    ]

let run_round ?cache (config : Config.t) t owner (changed : Process.t) =
  Metrics.incr c_rounds;
  Obs.span "round" ~attrs:[ ("originator", str owner) ] @@ fun () ->
  let old_public = Model.public t owner in
  let t' =
    Obs.span "regenerate" ~attrs:[ ("party", str owner) ] @@ fun () ->
    Model.update t changed
  in
  let new_public = Model.public t' owner in
  let public_changed =
    not (Classify.public_unchanged ~old_public ~new_public ())
  in
  if not public_changed then
    ({ originator = owner; public_changed = false; partners = [] }, t', [])
  else
    let partners =
      List.filter (fun p -> Model.interact t' owner p) (Model.parties t')
    in
    let tasks =
      List.map (fun p -> (p, Model.public t' p, Model.private_ t' p)) partners
    in
    (* Dirty-region tracking: with a coordinator cache, fingerprint the
       step inputs here (the digests are cached on the shared automata,
       so this is O(1) after the first round) and fan out only the
       steps whose inputs changed. The stitch below preserves partner
       order, so the round report is structurally identical to one
       computed without the step cache. *)
    let steps = if Config.budgeted config then None else cache in
    let keyed =
      match steps with
      | None -> List.map (fun task -> (task, None, None)) tasks
      | Some lru ->
          let old_fp = Chorev_afsa.Fingerprint.digest old_public
          and new_fp = Chorev_afsa.Fingerprint.digest new_public in
          List.map
            (fun ((partner, partner_public, partner_private) as task) ->
              let key =
                step_key config ~owner ~old_fp ~new_fp ~partner
                  ~partner_public ~partner_private
              in
              (task, Some key, Lru.find lru key))
            tasks
    in
    let miss_tasks =
      List.filter_map
        (fun (task, _, hit) -> if Option.is_none hit then Some task else None)
        keyed
    in
    let computed =
      Pool.map
        (fun (partner, partner_public, partner_private) ->
          run_partner_step config ~owner
            ~old_public:(Afsa.copy old_public)
            ~new_public:(Afsa.copy new_public)
            ~partner_public:(Afsa.copy partner_public)
            ~partner_private partner)
        miss_tasks
    in
    let rec stitch keyed computed acc =
      match keyed with
      | [] -> List.rev acc
      | (_, _, Some step) :: rest -> stitch rest computed (step :: acc)
      | (_, key, None) :: rest -> (
          match computed with
          | step :: more ->
              (match (steps, key) with
              | Some lru, Some k -> Lru.add lru k step
              | _ -> ());
              stitch rest more (step :: acc)
          | [] -> assert false)
    in
    let results = stitch keyed computed [] in
    let reports, t'', adapted =
      List.fold_left
        (fun (reports, t_acc, adapted) (report, adapted_proc) ->
          match adapted_proc with
          | Some p' ->
              ( report :: reports,
                Model.update t_acc p',
                (report.partner, p') :: adapted )
          | None -> (report :: reports, t_acc, adapted))
        ([], t', []) results
    in
    ( { originator = owner; public_changed = true; partners = List.rev reports },
      t'',
      adapted )

(* Which of a round's auto-adapted partners still propagate: those
   whose regenerated public differs from what the *pre-round* model [t]
   records for them. *)
let surviving_pending t adapted =
  List.filter
    (fun (p, proc') ->
      not
        (Chorev_afsa.Equiv.equal_annotated (Memo.public proc')
           (Model.public t p)))
    adapted

(* Where a run stands between rounds: what a durable driver rebuilds
   from its journal to continue the loop below. *)
type progress = {
  owner : string;
  model : Model.t;
  rounds_run : int;
  pending : (string * Process.t) list;
}

let start t ~owner ~changed =
  { owner; model = t; rounds_run = 0; pending = [ (owner, changed) ] }

(* The loop's step, shared by live rounds and replayed ones: partners
   adapted in the round propagate onward, except back to processes
   already equal in the pre-round model. *)
let advance (p : progress) model adapted =
  {
    p with
    model;
    rounds_run = p.rounds_run + 1;
    pending = List.tl p.pending @ surviving_pending p.model adapted;
  }

let replay_round (p : progress) ~adapted =
  match p.pending with
  | [] -> invalid_arg "Evolution.replay_round: nothing pending"
  | (_, proc) :: _ ->
      advance p
        (List.fold_left
           (fun m (_, pr) -> Model.update m pr)
           (Model.update p.model proc) adapted)
        adapted

let run_from ?(config = Config.default) ?cache ?(on_round = fun _ _ -> ()) p =
  Metrics.incr c_runs;
  Obs.span "evolve"
    ~attrs:[ ("owner", str p.owner); ("max_rounds", int max_rounds) ]
  @@ fun () ->
  let finish t rounds =
    {
      rounds = List.rev rounds;
      choreography = t;
      consistent = Consistency.consistent t;
    }
  in
  let rec go (p : progress) rounds =
    match p.pending with
    | [] -> finish p.model rounds
    | _ when p.rounds_run >= max_rounds -> finish p.model rounds
    | (owner, proc) :: _ ->
        let round, t', adapted = run_round ?cache config p.model owner proc in
        on_round round adapted;
        go (advance p t' adapted) (round :: rounds)
  in
  go p []

(** Evolve the choreography by replacing [owner]'s private process with
    [changed], under [config]. Total in [owner]. *)
let run ?config ?cache t ~owner ~changed =
  match Model.find_party t owner with
  | Error e -> Error e
  | Ok _ -> Ok (run_from ?config ?cache (start t ~owner ~changed))

(** Impact analysis: classify a proposed change against every partner
    without touching the choreography or anyone's private process — the
    report a process engineer reviews before committing (the decision
    diamond of the paper's Fig. 4). Total in [owner]. *)
let dry_run ?(config = Config.default) t ~owner ~changed =
  match Model.find_party t owner with
  | Error e -> Error e
  | Ok m ->
      Ok
        ( Obs.span "dry_run" ~attrs:[ ("owner", str owner) ] @@ fun () ->
          let old_public = m.Model.public_process in
          let new_public = Memo.public changed in
          if Classify.public_unchanged ~old_public ~new_public () then []
          else
            Model.parties t
            |> List.filter (fun p ->
                   (not (String.equal p owner)) && Model.interact t owner p)
            |> List.map (fun partner ->
                   Obs.span "partner" ~attrs:[ ("partner", str partner) ]
                   @@ fun () ->
                   let verdict =
                     classify_partner ~owner ~old_public ~new_public t
                       partner
                   in
                   let outcome =
                     if Classify.requires_propagation verdict then
                       Some
                         (Engine.run
                            ~config:{ config with auto_apply = false }
                            ~direction:
                              (Engine.direction_of_framework
                                 verdict.Classify.framework)
                            ~a':new_public
                            ~partner_private:(Model.private_ t partner)
                            ())
                     else None
                   in
                   { partner; verdict; outcome; repair = None; degraded = [] }) )

(** Apply a change operation to [owner]'s private process, then evolve. *)
let run_op ?config t ~owner op =
  match Model.find_party t owner with
  | Error (`Unknown_party _ as e) -> Error e
  | Ok m -> (
      match Chorev_change.Ops.apply op m.Model.private_process with
      | Error e -> Error (`Op e)
      | Ok changed -> (
          match run ?config t ~owner ~changed with
          | Ok r -> Ok r
          | Error (`Unknown_party _ as e) -> Error e))

let pp_round ppf r =
  Fmt.pf ppf "@[<v>round by %s (public %s):@,%a@]" r.originator
    (if r.public_changed then "changed" else "unchanged")
    (Fmt.list ~sep:Fmt.cut (fun ppf pr ->
         Fmt.pf ppf "  %a%a%a%a" Classify.pp_verdict pr.verdict
           (Fmt.option (fun ppf o ->
                Fmt.pf ppf " → %a" Engine.pp_outcome o))
           pr.outcome
           (Fmt.option (fun ppf r ->
                Fmt.pf ppf " → %a" Chorev_repair.Amend.pp_result r))
           pr.repair
           (fun ppf -> function
             | [] -> ()
             | ds -> Fmt.pf ppf " [degraded: %a]" Degrade.pp_list ds)
           pr.degraded))
    r.partners

let pp_report ppf rep =
  Fmt.pf ppf "@[<v>%a@,choreography consistent: %b@]"
    (Fmt.list ~sep:Fmt.cut pp_round)
    rep.rounds rep.consistent
