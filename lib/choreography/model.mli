(** A process choreography: parties with private processes; public
    processes and mapping tables are derived (Sec. 3). Interaction is
    bilateral: two parties interact when their alphabets share a
    label. *)

module Afsa = Chorev_afsa.Afsa

type member = {
  private_process : Chorev_bpel.Process.t;
  public_process : Afsa.t;
  table : Chorev_mapping.Table.t;
}

type t

val of_processes : Chorev_bpel.Process.t list -> t
(** Publics and tables come from [Chorev_cache.Memo.generate], as in
    {!update}. Raises [Invalid_argument] on duplicate parties. *)

val parties : t -> string list
val member : t -> string -> member option

val find_party : t -> string -> (member, [ `Unknown_party of string ]) result
(** Total lookup: [Error (`Unknown_party p)] instead of raising.
    Callers handling user-supplied party names should prefer this over
    {!member_exn}/{!public}/{!private_}. *)

val member_exn : t -> string -> member
val public : t -> string -> Afsa.t
val private_ : t -> string -> Chorev_bpel.Process.t
val table : t -> string -> Chorev_mapping.Table.t

val update : t -> Chorev_bpel.Process.t -> t
(** Replace one party's private process; public and table re-derived
    through [Chorev_cache.Memo.generate]. *)

val fingerprint : t -> string
(** Canonical MD5 digest (raw bytes) of the whole choreography: party
    names, public-process fingerprints and private-process digests, in
    party order. Its one caller is the [chorev sim] heal tail, which
    prints it to compare a healed run with its resumed twin. Fills
    member fingerprint caches — call from the owning domain. *)

val copy : t -> t
(** Structurally fresh: public processes pass through
    {!Chorev_afsa.Afsa.copy} so the result is safe to hand to another
    domain (used by the simulator's multi-seed soak fan-out). *)

val interact : t -> string -> string -> bool
val pairs : t -> (string * string) list
(** All interacting unordered pairs. *)

(** {2 Pre-flight validation} *)

type issue_kind =
  | Unknown_party_ref of { label : Chorev_afsa.Label.t; missing : string }
      (** a message endpoint names a party that is not a member *)
  | Dangling_channel of {
      label : Chorev_afsa.Label.t;
      counterparty : string;
    }  (** the counterparty's public alphabet never mentions the message *)
  | Unknown_message_type of {
      label : Chorev_afsa.Label.t;
      counterparty : string;
    }
      (** the message {e type} is emitted by one party but absent from
          the partner's whole alphabet — the signature of a typo or an
          unpropagated change (stronger than {!Dangling_channel}, which
          fires when the type exists but the exact channel does not) *)
  | Foreign_label of Chorev_afsa.Label.t
      (** a public alphabet contains a label not involving its party *)
  | No_final_state
  | Empty_language  (** no final state reachable from the start *)

type issue = { party : string; kind : issue_kind }

val issue_severity : issue -> [ `Error | `Warning ]
(** Dangling channels and unknown message types are warnings (legal but
    suspicious); everything else is an error. *)

val validate : t -> (unit, issue list) result
(** Well-formedness pre-flight, run by every [chorev] subcommand before
    pipeline work. Issues come out in party order. *)

val pp_issue : Format.formatter -> issue -> unit
