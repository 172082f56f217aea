(** Classification of changes (Sec. 4 of the paper).

    Changes are classified along two dimensions:

    - the *change framework* (Def. 5): a change [δ : A → A'] is
      {e additive} iff [A' \ A ≠ ∅] and {e subtractive} iff
      [A \ A' ≠ ∅] — both can hold for one change;
    - the *change propagation* dimension (Def. 6), relative to one
      partner's public process [B]: δ is {e invariant} iff [A' ∩ B ≠ ∅]
      (no propagation needed) and {e variant} iff [A' ∩ B = ∅].

    Both dimensions are computed on the *bilateral views*: the paper's
    Sec. 3.4 requires that processes compared for consistency represent
    the bilateral message exchanges only. Differences (Def. 5) are
    plain-language tests; variance (Def. 6) uses the annotated
    emptiness test. *)

module Afsa = Chorev_afsa.Afsa

type framework = { additive : bool; subtractive : bool }

type propagation = Invariant | Variant [@@deriving eq, show]

type verdict = {
  partner : string;
  framework : framework;
  propagation : propagation;
}

(** Def. 5 on two versions of (a view of) a public process: A′ ∖ A
    and A ∖ A′ are built and tested for emptiness, and only the two
    booleans are returned. The differences go through the
    fingerprint-keyed memo tables (inert under a limited ambient
    budget — see [Chorev_cache.Memo]). *)
let framework ~old_public ~new_public () =
  let nonempty a = not (Chorev_afsa.Emptiness.is_empty_plain a) in
  let added = Chorev_cache.Memo.difference new_public old_public in
  let removed = Chorev_cache.Memo.difference old_public new_public in
  { additive = nonempty added; subtractive = nonempty removed }

(** Def. 6 against one partner. *)
let propagation ~new_public ~partner_public () =
  if Chorev_cache.Memo.consistent new_public partner_public then Invariant
  else Variant

let c_runs = Chorev_obs.Metrics.counter "change.classify.runs"
let c_variant = Chorev_obs.Metrics.counter "change.classify.variant"

(** Full classification of a change of [owner]'s public process against
    partner [partner] whose public process is [partner_public]. The
    views [τ_partner] are taken internally. *)
let classify ~owner:_ ~partner ~old_public ~new_public ~partner_public () =
  Chorev_obs.Metrics.incr c_runs;
  Chorev_obs.Obs.span "classify"
    ~attrs:[ ("partner", Chorev_obs.Sink.Str partner) ]
  @@ fun () ->
  let v_old = Chorev_cache.Memo.tau ~observer:partner old_public in
  let v_new = Chorev_cache.Memo.tau ~observer:partner new_public in
  let verdict =
    {
      partner;
      framework = framework ~old_public:v_old ~new_public:v_new ();
      propagation = propagation ~new_public:v_new ~partner_public ();
    }
  in
  if verdict.propagation = Variant then Chorev_obs.Metrics.incr c_variant;
  verdict

(** Does the change touch the public level at all? (If the public views
    are language- and annotation-equal for every partner, the change is
    local to the private process — the top of the paper's Fig. 4
    flowchart.) *)
let public_unchanged ~old_public ~new_public () =
  if Chorev_cache.Memo.active () then
    (* [equal_annotated] is minimize-both-and-compare; with the memo
       the minimized forms are interned and carry cached digests, so a
       recurring comparison is two table hits and a string equality *)
    Chorev_afsa.Fingerprint.equal
      (Chorev_cache.Memo.minimize old_public)
      (Chorev_cache.Memo.minimize new_public)
  else Chorev_afsa.Equiv.equal_annotated old_public new_public

let requires_propagation v = v.propagation = Variant

let pp_verdict ppf v =
  Fmt.pf ppf "partner %s: %s%s, %s" v.partner
    (if v.framework.additive then "additive" else "")
    (if v.framework.subtractive then
       (if v.framework.additive then "+subtractive" else "subtractive")
     else if not v.framework.additive then "neutral"
     else "")
    (match v.propagation with
    | Invariant -> "invariant (no propagation needed)"
    | Variant -> "variant (propagation required)")
