(** Node-local step logic of the decentralized evolution protocol
    (Sec. 6): the durable per-party state machine — announce new public
    process, check bilateral views locally, ack/nack, adapt — shared by
    the synchronous runner {!Protocol.run} and the asynchronous
    discrete-event simulator [Chorev_sim.Sim]. Step functions return
    {!effect_}s instead of touching a network, so drivers decide
    delivery semantics (lock-step FIFO vs. faulty links). *)

module Afsa = Chorev_afsa.Afsa

type payload =
  | Announce of { public : Afsa.t }
      (** only public processes ever travel *)
  | Ack
  | Nack
  | Abort
      (** the sender is withdrawing the change it propagated: restore
          your pre-change state if you adapted, and cascade *)

type effect_ =
  | Send of { to_ : string; payload : payload }
  | Adapted of Chorev_bpel.Process.t
      (** the node replaced its own private process; drivers mirror
          this into their choreography model *)
  | Repaired of string
      (** marker preceding an [Adapted] that came from the amendment
          search rather than the engine's retry loop; carries the
          chosen candidate's description (drivers count these) *)

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
  mutable adapt_log : snapshot option;
      (** state before this node's first adaptation of the current
          protocol run; what an [Abort] restores *)
}

val kind : payload -> [ `Abort | `Ack | `Announce | `Nack ]

val of_model : before:Model.t -> current:Model.t -> string -> t
(** Private/public process from [current], partner publics from
    [before] (every party knows the pre-change protocol of its
    partners). *)

val partners : t -> string list
(** Parties whose last announced public shares a label with this
    node's current public — node-local knowledge only, sorted. *)

val announce_all : t -> effect_ list
(** Announce this node's current public process to every partner. *)

val withdraw : t -> pre:Chorev_bpel.Process.t -> effect_ list
(** The change originator's own withdrawal: abort messages to every
    partner of the {e changed} public, then restore [pre] as this
    node's private/public state and re-announce it. Driver-invoked
    when neither adaptation nor amendment restored consistency — the
    protocol-level trigger of a causal rollback. *)

val handle :
  ?adapt:bool ->
  ?config:Chorev_config.Config.t ->
  t ->
  from_:string ->
  payload ->
  effect_ list
(** One protocol step. [adapt:false] only nacks on inconsistency.
    [config] (default [Chorev_config.Config.default]) bounds the
    work: the bilateral view check runs under one [config.op_budget]
    budget — if it trips, the verdict is unknown and the node nacks
    without adapting — and the propagation engine runs under [config]'s
    budgets with its usual degrade policies. *)
