(** Seeded, deterministic discrete-event simulation of the
    decentralized evolution protocol (Sec. 6) over an unreliable
    asynchronous network: each party runs the
    {!Chorev_choreography.Node} state machine as an event-driven node
    over a transport with a {!Fault.profile}, hardened with epochs,
    idempotent redelivery, retransmission with exponential backoff +
    seeded jitter, and crash/restart with durable node state.

    Under {!Fault.none} the run reproduces
    {!Chorev_choreography.Protocol.run}'s verdict and message counts
    exactly; replaying any [(seed, profile)] reproduces the run and its
    JSON-lines trace byte-for-byte. *)

module Model = Chorev_choreography.Model

type stats = {
  ticks : int;  (** virtual time of the last effective event *)
  sent : int;  (** transmissions, including retries *)
  delivered : int;
  dropped : int;
  duplicated : int;
  deduplicated : int;
  retries : int;
  stale : int;  (** discarded for a superseded epoch *)
  crashes : int;
  announcements : int;
      (** first transmissions only — comparable with [Protocol.stats]
          under the zero-fault profile *)
  acks : int;
  nacks : int;
  aborts : int;  (** abort-cascade transmissions (node-level withdrawal) *)
}

type result = {
  agreed : bool;
  converged : bool;  (** quiescent within [max_ticks] *)
  stats : stats;
  final : Model.t;
  trace : string;  (** deterministic JSON-lines log; [""] if disabled *)
  injected_at : int option;
      (** tick of the seeded bad change, if the profile carried one *)
  pre_change : Model.t option;
      (** model snapshot from just before the injection — what restored
          parties are byte-compared against by the soak invariant *)
  rolled_back : string list;
      (** the causal cone that was restored ([[]]: no rollback ran) *)
  repairs : int;  (** partner adaptations produced by the amendment search *)
}

val run :
  ?adapt:bool ->
  ?engine_config:Chorev_config.Config.t ->
  ?profile:Fault.profile ->
  ?max_ticks:int ->
  ?trace:bool ->
  ?rollback:bool ->
  ?rollback_journal:string ->
  ?crash_during_rollback:int ->
  seed:int ->
  Model.t ->
  owner:string ->
  changed:Chorev_bpel.Process.t ->
  result
(** Simulate a change of [owner]'s private process to [changed].
    Defaults: [adapt:true], [profile:Fault.none], [max_ticks:10_000],
    [trace:true]. [engine_config] (default
    [Chorev_config.Config.default], unlimited) bounds each node's
    local algebra work — see {!Chorev_choreography.Node.handle}; its
    [repair] policy arms the nodes' amendment fallback. Only fuel
    budgets keep runs deterministic; wall-clock deadlines do not.

    When the profile carries a {!Fault.inject} entry, the owner applies
    a seeded rogue change at that tick and announces it. With
    [rollback:true], a run that drains without restoring agreement then
    rolls back exactly the causal cone of the injection to the
    pre-change snapshots — in memory, or journal-backed when
    [rollback_journal] names a directory (crash-safe; see
    {!Chorev_repair.Rollback}; [Invalid_argument] if the directory
    already holds a run). [crash_during_rollback:k] raises
    {!Chorev_wal.Run.Simulated_crash} after the [k]-th committed
    restore — the kill-during-rollback test hook. *)

val rollback_prelude : injected_at:int -> cone:string list -> string
(** The deterministic header printed (and journalled) before a
    rollback's restores — shared by the live path and [chorev resume]
    so interrupted and uninterrupted runs render byte-identically. *)

val pp_stats : Format.formatter -> stats -> unit
