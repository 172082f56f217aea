(** Choreography-wide consistency: every pair of interacting parties
    must be bilaterally consistent on their mutual views (Sec. 3.4 —
    "as a basis for bilateral consistency checking, it has to be ensured
    that the processes to be compared are representing the bilateral
    message exchanges only"). *)

module View = Chorev_afsa.View
module Metrics = Chorev_obs.Metrics
module Pool = Chorev_parallel.Pool
module Memo = Chorev_cache.Memo

type pair_verdict = {
  party_a : string;
  party_b : string;
  consistent : bool;
  witness : Chorev_afsa.Label.t list option;
}

let c_pairs = Metrics.counter "choreography.consistency.pairs"

(* Bilateral consistency on two members whose names are already
   resolved: each side's view of the other is intersected. The views and
   the verdict go through [Memo]'s fingerprint-keyed tables (inert under
   a limited ambient budget). *)
let check_members p1 (m1 : Model.member) p2 (m2 : Model.member) =
  Metrics.incr c_pairs;
  let v1 = Memo.tau ~observer:p2 m1.Model.public_process in
  let v2 = Memo.tau ~observer:p1 m2.Model.public_process in
  let consistent, witness = Memo.check_verdict v1 v2 in
  { party_a = p1; party_b = p2; consistent; witness }

(** Bilateral consistency of two parties of the choreography. Total in
    the party names: unknown names are reported, not raised. *)
let check_pair t p1 p2 =
  match (Model.find_party t p1, Model.find_party t p2) with
  | Ok m1, Ok m2 -> Ok (check_members p1 m1 p2 m2)
  | Error e, _ | _, Error e -> Error e

let consistent_pair t p1 p2 = Result.map (fun v -> v.consistent) (check_pair t p1 p2)

(** Verdicts for every interacting pair, in [Model.pairs] order. Total
    like {!check_pair}: a pair whose member entry has vanished is
    skipped rather than raising. Pairs fan out over the domain pool
    ([?pool], default {!Pool.default}); each task works on a private
    {!Chorev_afsa.Afsa.copy} of the public processes so concurrent
    lazy-CSR builds stay domain-local, and order preservation makes the
    result structurally equal to the sequential one. *)
let check_all ?pool t =
  let tasks =
    List.filter_map
      (fun (a, b) ->
        match (Model.find_party t a, Model.find_party t b) with
        | Ok m1, Ok m2 -> Some (a, m1, b, m2)
        | Error _, _ | _, Error _ -> None)
      (Model.pairs t)
  in
  Pool.map ?pool
    (fun (a, (m1 : Model.member), b, (m2 : Model.member)) ->
      check_members a
        { m1 with public_process = Chorev_afsa.Afsa.copy m1.public_process }
        b
        { m2 with public_process = Chorev_afsa.Afsa.copy m2.public_process })
    tasks

(** The choreography is consistent iff all interacting pairs are. *)
let consistent ?pool t =
  Chorev_obs.Obs.span "consistency.check_all" @@ fun () ->
  List.for_all (fun v -> v.consistent) (check_all ?pool t)

(** The protocol agreed between two parties — the paper's
    "A ∩ B ≠ ∅ … the protocol (choreography) between them" (Sec. 4.2):
    the annotated intersection of their mutual views. Empty iff the
    pair is inconsistent. Total in the party names. *)
let protocol t p1 p2 =
  match (Model.find_party t p1, Model.find_party t p2) with
  | Ok m1, Ok m2 ->
      let v1 = View.tau ~observer:p2 m1.Model.public_process in
      let v2 = View.tau ~observer:p1 m2.Model.public_process in
      Ok (Chorev_afsa.Ops.intersect v1 v2)
  | Error e, _ | _, Error e -> Error e

let pp_verdict ppf v =
  Fmt.pf ppf "%s ↔ %s: %s" v.party_a v.party_b
    (if v.consistent then "consistent" else "INCONSISTENT")
