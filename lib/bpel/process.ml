(** A private process: the party owning it, its partner links, the
    operation registry it communicates against, and the root activity.
    Corresponds to a BPEL [<process>] document plus its WSDL imports. *)

type t = {
  name : string;
  party : string;  (** the party executing this process *)
  links : Types.partner_link list;
  registry : Types.registry;
  body : Activity.t;
}

let make ~name ~party ?(links = []) ~registry body =
  { name; party; links; registry; body }

let party p = p.party
let name p = p.name
let body p = p.body
let registry p = p.registry
let links p = p.links

let with_body p body = { p with body }
let with_name p name = { p with name }

(** Parties this process communicates with. *)
let partners p =
  Activity.communications p.body
  |> List.map (fun (_, _, c) -> c.Activity.partner)
  |> List.sort_uniq String.compare

(** Operation mode for a communication of this process; [Async] when the
    registry has no entry (permissive default, flagged by {!Validate}).
    A received (or replied) operation belongs to the owning party's port
    type; an invoked operation to the partner's. *)
let op_owner p kind (c : Activity.comm) =
  match kind with `Invoke -> c.Activity.partner | `Receive | `Reply -> p.party

let mode p kind (c : Activity.comm) =
  Option.value ~default:Types.Async
    (Types.op_mode p.registry ~party:(op_owner p kind c) ~op:c.op)

(** Messages (labels) this communication activity exchanges, in wire
    order, given the owning process. A receive of a synchronous
    operation produces request (partner→me) then response (me→partner);
    an invoke of a synchronous operation the converse pair. *)
let labels_of_comm p kind (c : Activity.comm) :
    Chorev_afsa.Label.t list =
  let me = p.party and other = c.Activity.partner in
  let l ~from ~to_ = Chorev_afsa.Label.make ~sender:from ~receiver:to_ c.op in
  match (kind, mode p kind c) with
  | `Receive, Types.Async -> [ l ~from:other ~to_:me ]
  | `Receive, Types.Sync -> [ l ~from:other ~to_:me; l ~from:me ~to_:other ]
  | `Invoke, Types.Async -> [ l ~from:me ~to_:other ]
  | `Invoke, Types.Sync -> [ l ~from:me ~to_:other; l ~from:other ~to_:me ]
  | `Reply, _ -> [ l ~from:me ~to_:other ]

let comm_for_label p l =
  Activity.communications p.body
  |> List.find_opt (fun (_, kind, c) ->
         List.exists (Chorev_afsa.Label.equal l) (labels_of_comm p kind c))

(** Alphabet of the process: every label any of its communications can
    put on the wire. *)
let alphabet p =
  Activity.communications p.body
  |> List.concat_map (fun (_, kind, c) ->
         match kind with
         | `Receive -> labels_of_comm p `Receive c
         | `Reply -> labels_of_comm p `Reply c
         | `Invoke -> labels_of_comm p `Invoke c)
  |> List.sort_uniq Chorev_afsa.Label.compare

let size p = Activity.size p.body
