(** Node-local step logic of the decentralized evolution protocol
    (Sec. 6, after Wombacher et al., EEE 2005).

    One value of {!t} is the *durable* state a party keeps between
    protocol messages: its own private and public process, the last
    public process each partner announced, and the snapshot an abort
    restores. The step functions are pure in the network: they never
    send anything themselves — they return a list of {!effect_}s for
    the driver to realize. Two drivers share this module:

    - {!Protocol.run}, the synchronous round-based runner (a global
      FIFO, lock-step rounds, reliable delivery);
    - [Chorev_sim.Sim.run], the asynchronous discrete-event simulator
      (per-link faults, retries, crash/restart).

    Keeping the announce/check/adapt/ack logic here guarantees the two
    runners cannot drift: under reliable in-order delivery they produce
    exactly the same message sequence.

    Everything is computed from node-local knowledge only: a node's
    partner set is derived from its own alphabet intersected with the
    publics it has been told about — no global model is consulted. *)

module Afsa = Chorev_afsa.Afsa
module Label = Chorev_afsa.Label
module Budget = Chorev_guard.Budget
module Engine = Chorev_propagate.Engine
module Config = Chorev_config.Config

type payload =
  | Announce of { public : Afsa.t }
      (** the sender's new public process — the only process data that
          ever travels *)
  | Ack  (** the sender considers itself consistent with the receiver *)
  | Nack  (** the sender saw an inconsistency (it may adapt and re-ack) *)
  | Abort
      (** the sender is withdrawing the change it propagated: restore
          your pre-change state if you adapted, and cascade *)

type effect_ =
  | Send of { to_ : string; payload : payload }
  | Adapted of Chorev_bpel.Process.t
      (** this node replaced its own private process (the driver
          mirrors the update into its choreography model) *)
  | Repaired of string
      (** marker: the preceding [Adapted] came from the amendment
          search, not the engine's own retry loop; carries the chosen
          candidate's description (drivers count these) *)

type snapshot = {
  pre_private : Chorev_bpel.Process.t;
  pre_public : Afsa.t;
  announced_to : string list;
      (** parties this node announced its adapted public to — the
          abort cascade's fan-out *)
}

type t = {
  party : string;
  mutable private_process : Chorev_bpel.Process.t;
  mutable public : Afsa.t;
  mutable known_publics : (string * Afsa.t) list;
      (** last public process announced by each partner *)
  mutable adapt_log : snapshot option;
      (** state before this node's {e first} adaptation of the current
          protocol run; what an [Abort] restores *)
}

let kind = function
  | Announce _ -> `Announce
  | Ack -> `Ack
  | Nack -> `Nack
  | Abort -> `Abort

let find_known n p = List.assoc_opt p n.known_publics

let set_known n p pub =
  n.known_publics <- (p, pub) :: List.remove_assoc p n.known_publics

(** The node for [party]: private and public process from [current]
    (the owner's node is created after its change is applied), partner
    publics as known *before* the change. *)
let of_model ~(before : Model.t) ~(current : Model.t) party =
  let known =
    List.filter_map
      (fun q ->
        if Model.interact before party q then Some (q, Model.public before q)
        else None)
      (Model.parties before)
  in
  {
    party;
    private_process = Model.private_ current party;
    public = Model.public current party;
    known_publics = known;
    adapt_log = None;
  }

let shares_label a b =
  let sa = Label.Set.of_list (Afsa.alphabet a) in
  let sb = Label.Set.of_list (Afsa.alphabet b) in
  not (Label.Set.is_empty (Label.Set.inter sa sb))

(** Partners by node-local knowledge: parties whose last announced
    public shares a label with my current public, in lexicographic
    order (so announce fan-out is deterministic). *)
let partners n =
  n.known_publics
  |> List.filter (fun (_, pub) -> shares_label n.public pub)
  |> List.map fst
  |> List.sort_uniq String.compare

let announce_all n =
  List.map
    (fun q -> Send { to_ = q; payload = Announce { public = n.public } })
    (partners n)

(* Adopt [p'] as this node's private process, re-deriving the public
   exactly as [Model.update] would so both drivers see the same
   automaton. The first adoption of a protocol run snapshots the
   pre-change state (what an [Abort] restores); later ones only widen
   the recorded announce fan-out. *)
let adopt n ~from_ p' =
  let pre_private = n.private_process and pre_public = n.public in
  n.private_process <- p';
  n.public <- Chorev_cache.Memo.public p';
  let announces = announce_all n in
  let targets =
    List.filter_map
      (function Send { to_; payload = Announce _ } -> Some to_ | _ -> None)
      announces
  in
  (match n.adapt_log with
  | None ->
      n.adapt_log <- Some { pre_private; pre_public; announced_to = targets }
  | Some s ->
      n.adapt_log <-
        Some
          {
            s with
            announced_to =
              List.sort_uniq String.compare (targets @ s.announced_to);
          });
  Adapted p' :: Send { to_ = from_; payload = Ack } :: announces

(** The change originator's own withdrawal: compute the abort fan-out
    under the {e changed} public, restore [pre] as this node's state,
    and re-announce the restored public. Invoked by a driver when
    neither adaptation nor amendment restored consistency — the
    protocol-level trigger of a causal rollback. *)
let withdraw n ~pre =
  let targets = partners n in
  n.private_process <- pre;
  n.public <- Chorev_cache.Memo.public pre;
  n.adapt_log <- None;
  List.map (fun q -> Send { to_ = q; payload = Abort }) targets
  @ (Adapted pre :: announce_all n)

(** One protocol step: what [n] does on receiving [payload] from
    [from_]. [adapt:false] disables the local propagation engine, so an
    inconsistency is only nacked. [config] supplies the budgets: the
    bilateral view check runs under one op budget (a trip means the
    verdict is unknown — the node conservatively nacks and never adapts
    on an unaffordable check), and the propagation engine inherits
    [config]'s own budgets. *)
let handle ?(adapt = true) ?(config = Config.default) n ~from_ payload :
    effect_ list =
  match payload with
  | Ack | Nack -> []
  | Abort -> (
      (* Withdrawal of a change upstream of us: restore the pre-change
         snapshot if (and only if) we adapted, cascade the abort along
         our own announce fan-out, and re-announce the restored public.
         Idempotent — a second abort finds no snapshot and does
         nothing, so duplicated delivery is safe. *)
      match n.adapt_log with
      | None -> []
      | Some s ->
          n.adapt_log <- None;
          n.private_process <- s.pre_private;
          n.public <- s.pre_public;
          List.map (fun q -> Send { to_ = q; payload = Abort }) s.announced_to
          @ (Adapted s.pre_private :: announce_all n))
  | Announce { public } ->
      let previous = find_known n from_ in
      set_known n from_ public;
      (* local bilateral check on views, under an op budget *)
      let budget = Budget.of_spec config.op_budget in
      let checked =
        Budget.run budget (fun () ->
            let my_view = Chorev_afsa.View.tau ~budget ~observer:from_ n.public in
            let their_view =
              Chorev_afsa.View.tau ~budget ~observer:n.party public
            in
            ( Chorev_afsa.Consistency.consistent ~budget my_view their_view,
              their_view ))
      in
      match checked with
      | `Exceeded _ ->
          (* unknown verdict: treat as inconsistent but do not adapt —
             an adaptation computed against an unverified view could
             diverge between runs *)
          [ Send { to_ = from_; payload = Nack } ]
      | `Done (true, _) -> [ Send { to_ = from_; payload = Ack } ]
      | `Done (false, their_view) -> (
          let nack = Send { to_ = from_; payload = Nack } in
          if not adapt then [ nack ]
          else
            (* run the local propagation engine; on success, adopt the
               adaptation and announce it *)
            let fb = Budget.of_spec config.op_budget in
            match
              Budget.run fb (fun () ->
                  Chorev_change.Classify.framework
                    ~old_public:
                      (Chorev_afsa.View.tau ~budget:fb ~observer:n.party
                         (Option.value ~default:public previous))
                    ~new_public:their_view ())
            with
            | `Exceeded _ -> [ nack ]
            | `Done framework -> (
                let direction = Engine.direction_of_framework framework in
                let outcome =
                  Engine.run ~config ~direction ~a':public
                    ~partner_private:n.private_process ()
                in
                match outcome.Engine.adapted with
                | Some p' -> nack :: adopt n ~from_ p'
                | None ->
                    (* self-healing fallback: the engine's retry loop is
                       exhausted — search for a partner amendment on the
                       failure counterexample *)
                    match config.repair with
                    | None -> [ nack ]
                    | Some budget -> (
                        let r =
                          Chorev_repair.Amend.search ~budget ~direction
                            ~partner_private:n.private_process
                            ~view_new:outcome.Engine.analysis.Engine.view_new
                            ~delta:outcome.Engine.analysis.Engine.delta ()
                        in
                        match r.Chorev_repair.Amend.repaired with
                        | None -> [ nack ]
                        | Some (p', _) ->
                            let description =
                              Option.value ~default:"amended"
                                r.Chorev_repair.Amend.chosen
                            in
                            nack :: Repaired description :: adopt n ~from_ p')))
