(** The propagation pipelines of Sec. 5.2 (variant additive) and 5.3
    (variant subtractive), steps 1–5: delta computation, target public
    process, localization, suggestions, optional auto-apply with a
    re-check loop over suggestion subsets. *)

module Afsa = Chorev_afsa.Afsa
module Budget = Chorev_guard.Budget
module Degrade = Chorev_guard.Degrade

type direction = Additive | Subtractive

type analysis = {
  view_new : Afsa.t;  (** τ_partner(A′) *)
  delta : Afsa.t;  (** added or removed sequences *)
  target_public : Afsa.t;  (** computed B′ *)
  divergences : Localize.divergence list;
  suggestions : Suggest.t list;
  witness : Chorev_afsa.Label.t list option;
      (** shortest distinguishing witness trace of [delta] — a concrete
          message sequence the partner cannot follow. Filled in by
          {!run} when the pipeline ends inconsistent ([None] while it
          succeeds, or when the delta is language-empty); {!analyze}
          itself leaves it [None]. *)
  degraded : Degrade.t list;
      (** budget trips during steps 1–4 and the fallbacks taken:
          skipped minimization, abandoned delta (partner kept as-is) *)
}
(** Steps 1–4 of the pipeline for one partner, as a named record (the
    positional 5-tuple it replaces was error-prone to destructure). *)

type outcome = {
  direction : direction;
  analysis : analysis;
  adapted : Chorev_bpel.Process.t option;  (** auto-applied private process *)
  adapted_public : Afsa.t option;
  consistent_after : bool;
      (** [false] also covers an [`Unknown] re-check verdict — see
          [degraded] to distinguish "inconsistent" from "out of budget" *)
  degraded : Degrade.t list;
      (** everything in [analysis.degraded] plus re-check, resynthesis
          and whole-round trips; empty = full-fidelity result *)
}

val analyze :
  ?round:Budget.t ->
  ?op_budget:Budget.spec ->
  direction:direction ->
  a':Afsa.t ->
  partner_private:Chorev_bpel.Process.t ->
  public_b:Afsa.t ->
  table_b:Chorev_mapping.Table.t ->
  unit ->
  analysis
(** Steps 1–4 under budgets: each step gets a fresh budget minted from
    [op_budget] capped by [round]'s remainder, and degrades per policy
    (view → unminimized view; delta → keep the partner unchanged;
    localize/suggest → no suggestions) instead of raising. Only a trip
    of [round] itself escapes, as [Budget.Expired]. Views and
    differences go through [Chorev_cache.Memo], which stands down under
    a limited ambient budget. *)

val run :
  ?config:Chorev_config.Config.t ->
  direction:direction ->
  a':Afsa.t ->
  partner_private:Chorev_bpel.Process.t ->
  unit ->
  outcome
(** Run the full pipeline for one partner under [config] (default
    [Chorev_config.Config.default]): its op and round budgets and
    [auto_apply]. [repair] is read by [Evolution] and [Node], not by
    [run]. *)

val direction_of_framework : Chorev_change.Classify.framework -> direction
val pp_outcome : Format.formatter -> outcome -> unit
