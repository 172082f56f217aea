(** Decentralized consistency checking, in the spirit of the paper's
    Sec. 6 and its companion work (Wombacher et al., EEE 2005): "the
    only information which has to be exchanged between partners is
    about the changes applied to public processes. The difference
    calculation as well as the necessary adaptations of the own public
    and private processes can be accomplished locally."

    This module is the *synchronous* driver of the per-party state
    machine in {!Node}: all agents share one reliable FIFO network and
    advance in lock-step rounds until the queue drains (or
    [max_rounds] is hit). The asynchronous counterpart over unreliable
    links — same {!Node}, different driver — is [Chorev_sim.Sim].

    The simulation counts messages and rounds so benchmarks can report
    the decentralization cost; no party ever reads another party's
    private process — only public processes travel. *)

type stats = {
  rounds : int;
  messages : int;
  announcements : int;
  acks : int;
  nacks : int;
  aborts : int;
  repairs : int;  (** adaptations produced by the amendment search *)
}

type result = {
  agreed : bool;  (** all pairs mutually acknowledged *)
  rolled_back : bool;
      (** the change was withdrawn: the originator aborted and every
          causally affected party restored its pre-change state *)
  stats : stats;
  final : Model.t;  (** choreography after local adaptations *)
}

(** Run the protocol for a change of [owner]'s private process to
    [changed]. [adapt] controls whether nacking partners run the local
    propagation engine to adapt (default true); [engine_config]
    (default [Chorev_config.Config.default]) carries the per-op budgets
    each node works under (its [repair] policy arms the nodes' amendment
    fallback). [rollback] (default false) arms the causal rollback:
    when the drained protocol still leaves some pair inconsistent, the
    originator withdraws the change — abort cascade along the announce
    edges, every causally affected party restores its pre-change
    snapshot, unaffected parties are never touched. *)
let run ?(adapt = true) ?(engine_config = Chorev_config.Config.default)
    ?(max_rounds = 16) ?(rollback = false) (t : Model.t) ~owner ~changed =
  let before = t in
  let t = ref (Model.update t changed) in
  let parties = Model.parties !t in
  let nodes =
    List.map (fun p -> (p, Node.of_model ~before ~current:!t p)) parties
  in
  let node p = List.assoc p nodes in
  (* the global FIFO: (recipient, sender, payload) *)
  let inbox : (string * string * Node.payload) Queue.t = Queue.create () in
  let messages = ref 0
  and announcements = ref 0
  and acks = ref 0
  and nacks = ref 0
  and aborts = ref 0
  and repairs = ref 0 in
  let apply_effects p effects =
    List.iter
      (function
        | Node.Send { to_; payload } ->
            incr messages;
            (match Node.kind payload with
            | `Announce -> incr announcements
            | `Ack -> incr acks
            | `Nack -> incr nacks
            | `Abort -> incr aborts);
            Queue.add (to_, p, payload) inbox
        | Node.Adapted p' -> t := Model.update !t p'
        | Node.Repaired _ -> incr repairs)
      effects
  in
  let drain () =
    let rounds = ref 0 in
    let continue = ref true in
    while !continue && !rounds < max_rounds do
      incr rounds;
      let batch = Queue.length inbox in
      if batch = 0 then continue := false
      else
        for _ = 1 to batch do
          let to_, from_, payload = Queue.pop inbox in
          apply_effects to_
            (Node.handle ~adapt ~config:engine_config (node to_) ~from_
               payload)
        done
    done;
    !rounds
  in
  (* originator announces its new public process *)
  apply_effects owner (Node.announce_all (node owner));
  let rounds = ref (drain ()) in
  (* agreement: every interacting pair is mutually consistent now *)
  let agreed = ref (Consistency.consistent !t) in
  let rolled_back = ref false in
  if (not !agreed) && rollback then begin
    (* the change cannot be healed: withdraw it. The abort cascade
       reaches exactly the parties that adapted because of it (the
       causal cone along the announce edges); everyone else's state is
       never touched. *)
    rolled_back := true;
    apply_effects owner
      (Node.withdraw (node owner) ~pre:(Model.private_ before owner));
    t := Model.update !t (Model.private_ before owner);
    rounds := !rounds + drain ();
    agreed := Consistency.consistent !t
  end;
  {
    agreed = !agreed;
    rolled_back = !rolled_back;
    stats =
      {
        rounds = !rounds;
        messages = !messages;
        announcements = !announcements;
        acks = !acks;
        nacks = !nacks;
        aborts = !aborts;
        repairs = !repairs;
      };
    final = !t;
  }

let pp_stats ppf s =
  Fmt.pf ppf "rounds=%d messages=%d (announce=%d ack=%d nack=%d abort=%d) repairs=%d"
    s.rounds s.messages s.announcements s.acks s.nacks s.aborts s.repairs
