(** A private process: owning party, partner links, operation registry
    and root activity — a BPEL [<process>] document with its WSDL
    imports. *)

type t = {
  name : string;
  party : string;
  links : Types.partner_link list;
  registry : Types.registry;
  body : Activity.t;
}

val make :
  name:string ->
  party:string ->
  ?links:Types.partner_link list ->
  registry:Types.registry ->
  Activity.t ->
  t

val party : t -> string
val name : t -> string
val body : t -> Activity.t
val registry : t -> Types.registry
val links : t -> Types.partner_link list
val with_body : t -> Activity.t -> t
val with_name : t -> string -> t

val partners : t -> string list
(** Parties this process communicates with. *)

val op_owner :
  t -> [ `Receive | `Reply | `Invoke ] -> Activity.comm -> string
(** Received/replied operations belong to the owning party's port
    type; invoked ones to the partner's. *)

val mode :
  t -> [ `Receive | `Reply | `Invoke ] -> Activity.comm -> Types.mode
(** [Async] when the registry has no entry (flagged by
    {!Validate}). *)

val labels_of_comm :
  t ->
  [ `Receive | `Reply | `Invoke ] ->
  Activity.comm ->
  Chorev_afsa.Label.t list
(** Messages the communication puts on the wire, in order; synchronous
    operations produce request then response. *)

val comm_for_label :
  t ->
  Chorev_afsa.Label.t ->
  (Activity.path * [ `Receive | `Reply | `Invoke ] * Activity.comm) option
(** The first communication in preorder that puts the label on the wire
    (the receive of an incoming message, the invoke or reply of an
    outgoing one), with its path and kind. *)

val alphabet : t -> Chorev_afsa.Label.t list
val size : t -> int
