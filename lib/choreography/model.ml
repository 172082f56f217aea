(** A process choreography: a set of parties, each with a private
    process; public processes and mapping tables are derived (Sec. 3).

    The paper's Fig. 1 choreography has three parties (buyer,
    accounting, logistics); this model supports any number. Interaction
    is bilateral: two parties interact when their alphabets share a
    label. *)

module Afsa = Chorev_afsa.Afsa
module Label = Chorev_afsa.Label
open Chorev_bpel

module SMap = Map.Make (String)

type member = {
  private_process : Process.t;
  public_process : Afsa.t;
  table : Chorev_mapping.Table.t;
}

type t = { members : member SMap.t }

(* Publics are derived through [Chorev_cache.Memo.generate] here as in
   {!update}, so the engine's later [Memo.generate] of a registered
   partner finds the public this model already holds. *)
let of_processes procs =
  let members =
    List.fold_left
      (fun acc (p : Process.t) ->
        let public_process, table = Chorev_cache.Memo.generate p in
        if SMap.mem (Process.party p) acc then
          invalid_arg
            (Printf.sprintf "Choreography.of_processes: duplicate party %s"
               (Process.party p));
        SMap.add (Process.party p)
          { private_process = p; public_process; table }
          acc)
      SMap.empty procs
  in
  { members }

let parties t = List.map fst (SMap.bindings t.members)
let member t party = SMap.find_opt party t.members

(** Total party lookup: callers that receive party names from the
    outside ([Evolution], [Consistency], the CLI) route through this
    instead of the raising accessors, so a typo'd owner name surfaces
    as [`Unknown_party] rather than an exception. *)
let find_party t party : (member, [ `Unknown_party of string ]) result =
  match member t party with
  | Some m -> Ok m
  | None -> Error (`Unknown_party party)

let member_exn t party =
  match member t party with
  | Some m -> m
  | None -> invalid_arg ("Choreography.member_exn: unknown party " ^ party)

let public t party = (member_exn t party).public_process
let private_ t party = (member_exn t party).private_process
let table t party = (member_exn t party).table

(** Replace one party's private process; its public process and table
    are re-derived (the "recreate public view" step of Fig. 4) through
    [Chorev_cache.Memo.generate], so re-deriving a process already seen
    this session (e.g. a change that reverts an earlier one) is a table
    lookup. *)
let update t (p : Process.t) =
  let public_process, table = Chorev_cache.Memo.generate p in
  {
    members =
      SMap.add (Process.party p)
        { private_process = p; public_process; table }
        t.members;
  }

(** Canonical fingerprint of the whole choreography: an MD5 digest over
    the party names, their public-process fingerprints and their
    private-process digests, in party order. Two models have equal
    fingerprints iff every member is structurally identical. Only the
    [chorev sim] heal tail prints it. Computing it fills the members'
    fingerprint caches, so call it from the owning domain only. *)
let fingerprint t =
  let buf = Buffer.create 256 in
  SMap.iter
    (fun party m ->
      Buffer.add_string buf party;
      Buffer.add_char buf '\x00';
      Buffer.add_string buf (Chorev_afsa.Fingerprint.digest m.public_process);
      Buffer.add_string buf (Chorev_cache.Intern.process_digest m.private_process))
    t.members;
  Digest.string (Buffer.contents buf)

(** A structurally fresh model: every member's public process goes
    through {!Chorev_afsa.Afsa.copy}, so the copy can be handed to
    another domain (the lazy CSRs of a shared automaton must not be
    built concurrently — see [Chorev_parallel.Pool]). Private processes and tables are immutable
    and stay shared. *)
let copy t =
  {
    members =
      SMap.map
        (fun m -> { m with public_process = Afsa.copy m.public_process })
        t.members;
  }

(* ------------------------------------------------------------------ *)
(* Pre-flight validation                                               *)
(* ------------------------------------------------------------------ *)

type issue_kind =
  | Unknown_party_ref of { label : Label.t; missing : string }
  | Dangling_channel of { label : Label.t; counterparty : string }
  | Unknown_message_type of { label : Label.t; counterparty : string }
  | Foreign_label of Label.t
  | No_final_state
  | Empty_language

type issue = { party : string; kind : issue_kind }

let issue_severity i =
  match i.kind with
  | Dangling_channel _ | Unknown_message_type _ -> `Warning
  | _ -> `Error

let pp_issue ppf i =
  match i.kind with
  | Unknown_party_ref { label; missing } ->
      Fmt.pf ppf "%s: message %a references party %s, which is not a member"
        i.party Label.pp label missing
  | Dangling_channel { label; counterparty } ->
      Fmt.pf ppf
        "%s: message %a is never matched by %s's public process (dangling \
         channel)"
        i.party Label.pp label counterparty
  | Unknown_message_type { label; counterparty } ->
      Fmt.pf ppf
        "%s: message type %a sent to %s is absent from %s's whole alphabet \
         (likely a typo or a change that was never propagated)"
        i.party Label.pp_short label counterparty counterparty
  | Foreign_label label ->
      Fmt.pf ppf "%s: public alphabet contains %a, which does not involve %s"
        i.party Label.pp label i.party
  | No_final_state ->
      Fmt.pf ppf "%s: public process has no final state" i.party
  | Empty_language ->
      Fmt.pf ppf
        "%s: public process accepts no conversation (no final state is \
         reachable)"
        i.party

(** Well-formedness pre-flight: every message endpoint is a member,
    every channel is matched by the counterparty's public alphabet,
    every public automaton can accept something. Issues are in party
    order; dangling channels are {!issue_severity} [`Warning] (a legal
    but suspicious choreography), everything else [`Error]. *)
let validate t =
  let issues = ref [] in
  let add party kind = issues := { party; kind } :: !issues in
  SMap.iter
    (fun party m ->
      let a = m.public_process in
      List.iter
        (fun (l : Label.t) ->
          if not (Label.involves party l) then add party (Foreign_label l)
          else
            match Label.counterparty party l with
            | None -> ()
            | Some other -> (
                match SMap.find_opt other t.members with
                | None ->
                    add party (Unknown_party_ref { label = l; missing = other })
                | Some peer ->
                    let peer_alpha = Afsa.alphabet peer.public_process in
                    if not (List.exists (Label.equal l) peer_alpha) then
                      (* the exact channel is unmatched; if even the
                         message *type* appears nowhere in the peer's
                         alphabet, say so — that is the signature of a
                         typo or an unpropagated change, and exactly
                         what a rogue injection looks like *)
                      if
                        not
                          (List.exists
                             (fun (l' : Label.t) ->
                               String.equal l'.Label.msg l.Label.msg)
                             peer_alpha)
                      then
                        add party
                          (Unknown_message_type
                             { label = l; counterparty = other })
                      else
                        add party
                          (Dangling_channel { label = l; counterparty = other })))
        (Afsa.alphabet a);
      if Afsa.finals a = [] then add party No_final_state
      else if Chorev_afsa.Emptiness.is_empty_plain a then add party Empty_language)
    t.members;
  match List.rev !issues with [] -> Ok () | is -> Error is

(** Do two parties interact (share at least one label)? *)
let interact t p1 p2 =
  (not (String.equal p1 p2))
  &&
  let a1 = Label.Set.of_list (Afsa.alphabet (public t p1)) in
  let a2 = Label.Set.of_list (Afsa.alphabet (public t p2)) in
  not (Label.Set.is_empty (Label.Set.inter a1 a2))

(** All interacting (unordered) pairs. *)
let pairs t =
  let ps = parties t in
  List.concat_map
    (fun p1 ->
      List.filter_map
        (fun p2 -> if p1 < p2 && interact t p1 p2 then Some (p1, p2) else None)
        ps)
    ps
