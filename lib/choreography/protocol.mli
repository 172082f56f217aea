(** Decentralized consistency checking (Sec. 6, after Wombacher et al.
    EEE 2005): parties exchange only announcements of their new public
    processes and ack/nack verdicts; views, checks and adaptations
    happen locally (the per-party step logic lives in {!Node}). This is
    the synchronous lock-step driver with reliable FIFO delivery; the
    asynchronous faulty-network driver is [Chorev_sim.Sim]. The
    simulation counts rounds and messages. *)

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
  agreed : bool;  (** all interacting pairs consistent afterwards *)
  rolled_back : bool;
      (** the change was withdrawn: the originator aborted and every
          causally affected party restored its pre-change state *)
  stats : stats;
  final : Model.t;  (** choreography after local adaptations *)
}

val run :
  ?adapt:bool ->
  ?engine_config:Chorev_config.Config.t ->
  ?max_rounds:int ->
  ?rollback:bool ->
  Model.t ->
  owner:string ->
  changed:Chorev_bpel.Process.t ->
  result
(** [adapt:false] disables local adaptation by nacking partners.
    [engine_config] bounds each node's local work (see {!Node.handle});
    default [Chorev_config.Config.default], i.e. unlimited — its
    [repair] policy arms the nodes' amendment fallback. With
    [rollback:true] a drained-but-inconsistent protocol triggers the
    originator's withdrawal: an abort cascade along the announce edges
    restores exactly the causally affected parties to their pre-change
    state. *)

val pp_stats : Format.formatter -> stats -> unit
