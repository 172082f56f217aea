(** Deterministic discrete-event simulation of the decentralized
    evolution protocol over an unreliable asynchronous network.

    Each party of a {!Chorev_choreography.Model.t} runs as an
    event-driven node executing the {!Chorev_choreography.Node} state
    machine — announce new public process, check bilateral views
    locally, ack/nack, adapt — over a simulated transport with a
    configurable {!Fault.profile} (per-link drop/duplicate/delay-range,
    transient partitions, node crash+restart with durable node state).

    Production-shaped robustness machinery on top of the node logic:

    - {b epochs}: every (re-)announcement round of a node carries a
      monotonically increasing epoch; replies quote the epoch they
      answer, so stale acks for superseded publics are discarded;
    - {b idempotent redelivery}: duplicated frames are deduplicated by
      [(sender, transmission id)]; a retransmitted announce that was
      already processed is answered from a durable reply cache instead
      of being re-processed (so the reply is re-sent even if the
      original reply was lost, without re-running the adaptation);
    - {b retries}: every announce is retransmitted with exponential
      backoff and seeded jitter until some reply for its epoch arrives
      (or the attempt cap is hit), which makes the protocol live on
      fair-loss links;
    - {b crash+restart}: a crashed node loses its in-flight timers but
      keeps its durable state ({!Chorev_choreography.Node.t}, epoch,
      reply cache); on restart it re-announces its current public
      process under a fresh epoch.

    Determinism: there is no wall clock and no global [Random] state —
    a virtual clock advances through a priority queue ordered by
    [(time, insertion seq)] ({!Eventq}), and every random draw comes
    from [Random.State] values derived from the run's seed. Replaying
    [(seed, profile)] reproduces the run — and its trace —
    byte-for-byte.

    Correctness anchor: under {!Fault.none} (reliable, instantaneous,
    in-order links) the event order degenerates to the global FIFO of
    the synchronous driver, so the run reproduces
    {!Chorev_choreography.Protocol.run}'s verdict and message counts
    exactly. *)

module Model = Chorev_choreography.Model
module Node = Chorev_choreography.Node
module Consistency = Chorev_choreography.Consistency
module Metrics = Chorev_obs.Metrics
module Rollback = Chorev_repair.Rollback
module Sexp = Chorev_bpel.Sexp

(* Retransmission: first retry after [rto_base] ticks, doubling up to
   [rto_cap], at most [max_attempts] transmissions per (partner,
   epoch). The cap keeps total-partition profiles terminating; on
   fair-loss links the cap is effectively never reached. *)
let rto_base = 8
let rto_cap = 128
let max_attempts = 12

type stats = {
  ticks : int;  (** virtual time of the last effective event *)
  sent : int;  (** transmissions handed to the transport (incl. retries) *)
  delivered : int;
  dropped : int;  (** lost to links, partitions, or a crashed receiver *)
  duplicated : int;
  deduplicated : int;  (** duplicate frames discarded by receivers *)
  retries : int;  (** retransmissions (announce retries + cached re-replies) *)
  stale : int;  (** messages discarded for a superseded epoch *)
  crashes : int;
  announcements : int;  (** first-transmission counts, comparable with *)
  acks : int;  (** [Protocol.stats] under the zero-fault profile *)
  nacks : int;
  aborts : int;  (** abort-cascade transmissions (node-level withdrawal) *)
}

type result = {
  agreed : bool;  (** all interacting pairs consistent afterwards *)
  converged : bool;  (** reached quiescence within [max_ticks] *)
  stats : stats;
  final : Model.t;
  trace : string;  (** deterministic JSON-lines event log ("" unless [trace]) *)
  injected_at : int option;
      (** the tick at which the seeded bad change was applied, if any *)
  pre_change : Model.t option;
      (** the model as it was just before the injection — the rollback
          oracle the soak compares restored parties against *)
  rolled_back : string list;
      (** the causal cone that was restored (empty: no rollback ran) *)
  repairs : int;  (** partner adaptations produced by the amendment search *)
}

type envelope = {
  env_from : string;
  env_to : string;
  epoch : int;
      (** the sender's announce epoch (announces), or the epoch being
          answered (acks/nacks) *)
  mid : int;  (** per-sender transmission id; duplicated frames share it *)
  payload : Node.payload;
}

type event =
  | Deliver of envelope
  | Retry of { party : string; to_ : string; epoch : int; attempt : int }
  | Crash of string
  | Restart of string
  | Inject of Fault.inject
      (** the owner applies a seeded bad change and announces it *)

type pending = { p_to : string; p_epoch : int }

(* Per-party runtime state. [node], [epoch], [next_mid], [replies] and
   [last_epoch] are durable (they survive a crash); [pending] — the
   in-flight retransmission timers — is volatile and lost on crash. *)
type pnode = {
  node : Node.t;
  rng : Random.State.t;  (** per-node backoff jitter *)
  mutable up : bool;
  mutable epoch : int;
  mutable next_mid : int;
  seen : (string * int, unit) Hashtbl.t;  (** (sender, mid) dedup *)
  replies : (string * int, Node.payload list) Hashtbl.t;
      (** (sender, announce epoch) → replies sent, for idempotent
          re-reply to retransmitted announces *)
  last_epoch : (string, int) Hashtbl.t;  (** highest epoch seen per sender *)
  mutable pending : pending list;
}

let c_runs = Metrics.counter "sim.runs"
let c_sent = Metrics.counter "sim.messages.sent"
let c_dropped = Metrics.counter "sim.messages.dropped"
let c_retried = Metrics.counter "sim.messages.retried"
let c_delivered = Metrics.counter "sim.messages.delivered"
let h_ticks = Metrics.histogram "sim.convergence.ticks"

let kind_name = function
  | `Announce -> "announce"
  | `Ack -> "ack"
  | `Nack -> "nack"
  | `Abort -> "abort"

(* A seeded rogue change: insert an invoke of a fresh message type —
   absent from every partner's alphabet, so the partner's bilateral
   check is guaranteed to fail — at a seeded position of the first
   sequence of [owner]'s private process. This is the repair soak's
   fault class: the seed pins down partner, message name and insertion
   point, so the same seed produces the same bad change at every pool
   size. *)
let rogue_change ~inject_seed (m : Model.t) owner =
  let module A = Chorev_bpel.Activity in
  let p = Model.private_ m owner in
  let rng = Random.State.make [| inject_seed; 0xbad |] in
  let partners =
    List.filter
      (fun q -> (not (String.equal q owner)) && Model.interact m owner q)
      (Model.parties m)
    |> List.sort String.compare
  in
  match partners with
  | [] -> None
  | _ :: _ -> (
      let partner =
        List.nth partners (Random.State.int rng (List.length partners))
      in
      let act =
        A.invoke ~partner ~op:(Printf.sprintf "rogue%d" inject_seed)
      in
      let seq =
        A.all_nodes (Chorev_bpel.Process.body p)
        |> List.find_map (fun (path, a) ->
               match a with
               | A.Sequence (_, items) -> Some (path, List.length items)
               | _ -> None)
      in
      match seq with
      | None -> None
      | Some (path, n) -> (
          let pos = Random.State.int rng (n + 1) in
          match
            Chorev_change.Ops.apply
              (Chorev_change.Ops.Insert_activity { path; pos; act })
              p
          with
          | Ok p' -> Some p'
          | Error _ -> None))

(** The deterministic header a rollback-armed run prints before the
    restore starts. It is also stored in the journal's [meta.prelude],
    so a kill-during-rollback followed by [chorev resume] replays it
    byte-identically to the uninterrupted run. *)
let rollback_prelude ~injected_at ~cone =
  Printf.sprintf "injected at tick %d\nrolled back: %s\n" injected_at
    (String.concat "," cone)

let run ?(adapt = true) ?(engine_config = Chorev_config.Config.default)
    ?(profile = Fault.none) ?(max_ticks = 10_000) ?(trace = true)
    ?(rollback = false) ?rollback_journal ?crash_during_rollback ~seed
    (model : Model.t) ~owner ~changed =
  Metrics.incr c_runs;
  Chorev_obs.Obs.span "sim.run"
    ~attrs:
      [
        ("seed", Chorev_obs.Sink.Int seed);
        ("profile", Chorev_obs.Sink.Str profile.Fault.name);
        ("owner", Chorev_obs.Sink.Str owner);
      ]
  @@ fun () ->
  let before = model in
  let m = ref (Model.update model changed) in
  let parties = Model.parties !m in
  let q : event Eventq.t = Eventq.create () in
  let net_rng = Random.State.make [| seed; 0x5eed |] in
  let pnodes =
    List.map
      (fun p ->
        ( p,
          {
            node = Node.of_model ~before ~current:!m p;
            rng = Random.State.make [| seed; Hashtbl.hash p; 0x90de |];
            up = true;
            epoch = 0;
            next_mid = 0;
            seen = Hashtbl.create 64;
            replies = Hashtbl.create 16;
            last_epoch = Hashtbl.create 8;
            pending = [];
          } ))
      parties
  in
  let pnode p = List.assoc p pnodes in
  (* ------------------------------ trace ----------------------------- *)
  let buf = Buffer.create (if trace then 4096 else 0) in
  let tr fmt =
    if trace then
      Printf.ksprintf
        (fun line ->
          Buffer.add_string buf line;
          Buffer.add_char buf '\n')
        fmt
    else Printf.ksprintf ignore fmt
  in
  tr {|{"ev":"start","seed":%d,"profile":"%s","owner":"%s","adapt":%b}|} seed
    profile.Fault.name owner adapt;
  (* ------------------------------ stats ----------------------------- *)
  let sent = ref 0
  and delivered = ref 0
  and dropped = ref 0
  and duplicated = ref 0
  and deduplicated = ref 0
  and retries = ref 0
  and stale = ref 0
  and crashes = ref 0
  and announcements = ref 0
  and acks = ref 0
  and nacks = ref 0
  and aborts = ref 0
  and repairs = ref 0 in
  let last_tick = ref 0 in
  (* injection bookkeeping: the pre-change model snapshot, and the
     delivery edges recorded after the injection — the raw material of
     the causal cone should a rollback be needed *)
  let injected_at = ref None in
  let pre_change = ref None in
  let edges : Rollback.edge list ref = ref [] in
  (* ---------------------------- transport --------------------------- *)
  let link = profile.Fault.link in
  let delay () =
    link.Fault.delay_min
    +
    if link.Fault.delay_max > link.Fault.delay_min then
      Random.State.int net_rng (link.Fault.delay_max - link.Fault.delay_min + 1)
    else 0
  in
  let transmit ~now ~fresh pn ~to_ ~epoch payload =
    incr sent;
    last_tick := now;
    if fresh then (
      match Node.kind payload with
      | `Announce -> incr announcements
      | `Ack -> incr acks
      | `Nack -> incr nacks
      | `Abort -> incr aborts)
    else incr retries;
    let mid = pn.next_mid in
    pn.next_mid <- mid + 1;
    let from_ = pn.node.Node.party in
    tr {|{"t":%d,"ev":"send","from":"%s","to":"%s","kind":"%s","epoch":%d,"mid":%d,"fresh":%b}|}
      now from_ to_
      (kind_name (Node.kind payload))
      epoch mid fresh;
    if Fault.partitioned_at profile ~tick:now from_ to_ then begin
      incr dropped;
      tr {|{"t":%d,"ev":"drop","from":"%s","to":"%s","mid":%d,"cause":"partition"}|}
        now from_ to_ mid
    end
    else if Random.State.float net_rng 1.0 < link.Fault.drop_p then begin
      incr dropped;
      tr {|{"t":%d,"ev":"drop","from":"%s","to":"%s","mid":%d,"cause":"loss"}|}
        now from_ to_ mid
    end
    else begin
      let env = { env_from = from_; env_to = to_; epoch; mid; payload } in
      ignore (Eventq.add q ~at:(now + delay ()) (Deliver env));
      if Random.State.float net_rng 1.0 < link.Fault.dup_p then begin
        incr duplicated;
        tr {|{"t":%d,"ev":"dup","from":"%s","to":"%s","mid":%d}|} now from_ to_
          mid;
        ignore (Eventq.add q ~at:(now + delay ()) (Deliver env))
      end
    end
  in
  let rto attempt = min rto_cap (rto_base lsl attempt) in
  let schedule_retry ~now pn ~to_ ~attempt =
    let jitter = Random.State.int pn.rng (1 + (rto attempt / 4)) in
    ignore
      (Eventq.add q
         ~at:(now + rto attempt + jitter)
         (Retry { party = pn.node.Node.party; to_; epoch = pn.epoch; attempt }))
  in
  (* A batch of announce effects = one new epoch: transmit to every
     partner and arm a retransmission timer per link. *)
  let start_announces ~now pn targets =
    pn.epoch <- pn.epoch + 1;
    pn.pending <-
      List.map (fun to_ -> { p_to = to_; p_epoch = pn.epoch }) targets;
    List.iter
      (fun to_ ->
        transmit ~now ~fresh:true pn ~to_ ~epoch:pn.epoch
          (Node.Announce { public = pn.node.Node.public });
        schedule_retry ~now pn ~to_ ~attempt:0)
      targets
  in
  let resend_cached ~now pn ~to_ ~epoch =
    match Hashtbl.find_opt pn.replies (to_, epoch) with
    | None -> ()
    | Some payloads ->
        List.iter
          (fun payload -> transmit ~now ~fresh:false pn ~to_ ~epoch payload)
          payloads
  in
  (* --------------------------- event handlers ------------------------ *)
  let on_deliver ~now env =
    let pn = pnode env.env_to in
    if not pn.up then begin
      incr dropped;
      tr {|{"t":%d,"ev":"drop","from":"%s","to":"%s","mid":%d,"cause":"down"}|}
        now env.env_from env.env_to env.mid
    end
    else if Hashtbl.mem pn.seen (env.env_from, env.mid) then begin
      incr deduplicated;
      tr {|{"t":%d,"ev":"dedup","from":"%s","to":"%s","mid":%d}|} now
        env.env_from env.env_to env.mid
    end
    else begin
      Hashtbl.add pn.seen (env.env_from, env.mid) ();
      incr delivered;
      last_tick := now;
      Metrics.incr c_delivered;
      tr {|{"t":%d,"ev":"deliver","from":"%s","to":"%s","kind":"%s","epoch":%d,"mid":%d}|}
        now env.env_from env.env_to
        (kind_name (Node.kind env.payload))
        env.epoch env.mid;
      match Node.kind env.payload with
      | `Ack | `Nack ->
          if env.epoch <> pn.epoch then begin
            incr stale;
            tr {|{"t":%d,"ev":"stale","to":"%s","epoch":%d,"current":%d}|} now
              env.env_to env.epoch pn.epoch
          end
          else begin
            (* any reply for the current epoch settles the link's
               retransmission *)
            pn.pending <-
              List.filter
                (fun pd ->
                  not (pd.p_to = env.env_from && pd.p_epoch = env.epoch))
                pn.pending;
            ignore
              (Node.handle ~adapt ~config:engine_config pn.node
                 ~from_:env.env_from env.payload)
          end
      | `Abort ->
          (* epoch-free: an abort always applies (idempotent in the
             node — a party with no adaptation on record ignores it) *)
          let effects =
            Node.handle ~adapt ~config:engine_config pn.node
              ~from_:env.env_from env.payload
          in
          List.iter
            (function
              | Node.Adapted p' ->
                  tr {|{"t":%d,"ev":"revert","party":"%s"}|} now env.env_to;
                  m := Model.update !m p'
              | Node.Repaired _ -> incr repairs
              | Node.Send _ -> ())
            effects;
          List.iter
            (function
              | Node.Send { to_; payload } when Node.kind payload = `Abort ->
                  transmit ~now ~fresh:true pn ~to_ ~epoch:pn.epoch payload
              | _ -> ())
            effects;
          let announce_targets =
            List.filter_map
              (function
                | Node.Send { to_; payload = Node.Announce _ } -> Some to_
                | _ -> None)
              effects
          in
          if announce_targets <> [] then start_announces ~now pn announce_targets
      | `Announce ->
          let last =
            Option.value ~default:0
              (Hashtbl.find_opt pn.last_epoch env.env_from)
          in
          if env.epoch < last then begin
            (* superseded by a newer announcement we already saw *)
            incr stale;
            tr {|{"t":%d,"ev":"stale","to":"%s","epoch":%d,"current":%d}|} now
              env.env_to env.epoch last;
            resend_cached ~now pn ~to_:env.env_from ~epoch:env.epoch
          end
          else if
            env.epoch = last && Hashtbl.mem pn.replies (env.env_from, env.epoch)
          then
            (* retransmitted announce we already processed: answer from
               the durable reply cache (idempotent — the adaptation is
               not re-run) *)
            resend_cached ~now pn ~to_:env.env_from ~epoch:env.epoch
          else begin
            Hashtbl.replace pn.last_epoch env.env_from env.epoch;
            (* after an injection, processing an announcement is how the
               bad change spreads — record the delivery edge for the
               causal cone *)
            (match !injected_at with
            | Some t0 when now >= t0 ->
                edges :=
                  { Rollback.at = now; src = env.env_from; dst = env.env_to }
                  :: !edges
            | _ -> ());
            let effects =
              Node.handle ~adapt ~config:engine_config pn.node
                ~from_:env.env_from env.payload
            in
            let replies =
              List.filter_map
                (function
                  | Node.Send { to_; payload }
                    when to_ = env.env_from && Node.kind payload <> `Announce
                    ->
                      Some payload
                  | _ -> None)
                effects
            in
            Hashtbl.replace pn.replies (env.env_from, env.epoch) replies;
            List.iter
              (fun payload ->
                transmit ~now ~fresh:true pn ~to_:env.env_from ~epoch:env.epoch
                  payload)
              replies;
            List.iter
              (function
                | Node.Adapted p' ->
                    tr {|{"t":%d,"ev":"adapt","party":"%s"}|} now env.env_to;
                    m := Model.update !m p'
                | Node.Repaired d ->
                    incr repairs;
                    tr {|{"t":%d,"ev":"repair","party":"%s","fix":"%s"}|} now
                      env.env_to (String.escaped d)
                | Node.Send _ -> ())
              effects;
            let announce_targets =
              List.filter_map
                (function
                  | Node.Send { to_; payload = Node.Announce _ } -> Some to_
                  | _ -> None)
                effects
            in
            if announce_targets <> [] then
              start_announces ~now pn announce_targets
          end
    end
  in
  let on_retry ~now ~party ~to_ ~epoch ~attempt =
    let pn = pnode party in
    if
      pn.up && epoch = pn.epoch
      && List.exists
           (fun pd -> pd.p_to = to_ && pd.p_epoch = epoch)
           pn.pending
    then
      if attempt + 1 >= max_attempts then begin
        tr {|{"t":%d,"ev":"give-up","from":"%s","to":"%s","epoch":%d}|} now
          party to_ epoch;
        pn.pending <-
          List.filter
            (fun pd -> not (pd.p_to = to_ && pd.p_epoch = epoch))
            pn.pending
      end
      else begin
        transmit ~now ~fresh:false pn ~to_ ~epoch
          (Node.Announce { public = pn.node.Node.public });
        schedule_retry ~now pn ~to_ ~attempt:(attempt + 1)
      end
  in
  (* ------------------------------- run ------------------------------ *)
  List.iter
    (fun (c : Fault.crash) ->
      ignore (Eventq.add q ~at:c.Fault.at (Crash c.Fault.party));
      ignore (Eventq.add q ~at:c.Fault.restart_at (Restart c.Fault.party)))
    profile.Fault.crashes;
  List.iter
    (fun (i : Fault.inject) ->
      ignore (Eventq.add q ~at:i.Fault.inject_at (Inject i)))
    profile.Fault.injects;
  start_announces ~now:0 (pnode owner) (Node.partners (pnode owner).node);
  let converged = ref true in
  let running = ref true in
  while !running do
    match Eventq.pop q with
    | None -> running := false
    | Some (at, _seq, _) when at > max_ticks ->
        converged := false;
        running := false
    | Some (at, _seq, ev) -> (
        match ev with
        | Deliver env -> on_deliver ~now:at env
        | Retry { party; to_; epoch; attempt } ->
            on_retry ~now:at ~party ~to_ ~epoch ~attempt
        | Crash p ->
            let pn = pnode p in
            pn.up <- false;
            pn.pending <- [];
            incr crashes;
            last_tick := at;
            tr {|{"t":%d,"ev":"crash","party":"%s"}|} at p
        | Restart p ->
            let pn = pnode p in
            pn.up <- true;
            last_tick := at;
            tr {|{"t":%d,"ev":"restart","party":"%s"}|} at p;
            (* durable state survived; re-announce the current public
               under a fresh epoch to re-establish agreement *)
            start_announces ~now:at pn (Node.partners pn.node)
        | Inject i -> (
            let pn = pnode owner in
            if pn.up then
              match rogue_change ~inject_seed:i.Fault.inject_seed !m owner with
              | None ->
                  tr {|{"t":%d,"ev":"inject-skip","party":"%s"}|} at owner
              | Some p' ->
                  (* snapshot the whole model *before* the mutation:
                     this is what rolled-back parties are compared (and
                     restored) against *)
                  pre_change := Some !m;
                  injected_at := Some at;
                  last_tick := at;
                  tr {|{"t":%d,"ev":"inject","party":"%s","seed":%d}|} at owner
                    i.Fault.inject_seed;
                  m := Model.update !m p';
                  pn.node.Node.private_process <- p';
                  pn.node.Node.public <- Chorev_mapping.Public_gen.public p';
                  start_announces ~now:at pn (Node.partners pn.node)))
  done;
  let agreed = ref (Consistency.consistent !m) in
  let rolled_back = ref [] in
  (match (!injected_at, !pre_change) with
  | Some t0, Some pre when rollback && not !agreed ->
      (* the bad change could not be healed: restore exactly the parties
         it causally reached to their pre-change snapshots *)
      let cone = Rollback.cone ~origin:owner ~edges:(List.rev !edges) in
      let pre_sexps =
        List.map
          (fun p -> (p, Sexp.process_to_string (Model.private_ pre p)))
          cone
      in
      tr {|{"t":%d,"ev":"rollback","origin":"%s","cone":%d}|} !last_tick owner
        (List.length cone);
      let restore ~party ~pre =
        match Sexp.process_of_string pre with
        | Error e ->
            invalid_arg ("rollback: corrupt snapshot for " ^ party ^ ": " ^ e)
        | Ok p ->
            (match List.assoc_opt party pnodes with
            | Some pn ->
                pn.node.Node.private_process <- p;
                pn.node.Node.public <- Chorev_mapping.Public_gen.public p;
                pn.node.Node.adapt_log <- None
            | None -> ());
            m := Model.update !m p
      in
      (match rollback_journal with
      | None -> Rollback.restore_inline ~owner ~cone:pre_sexps ~restore
      | Some dir ->
          (* journal-backed: snapshots and the prelude go durable before
             the first restore, each restore is fsynced before the next
             — a kill anywhere in between resumes byte-identically *)
          let state =
            List.map
              (fun p -> (p, Sexp.process_to_string (Model.private_ !m p)))
              (Model.parties !m)
          in
          match
            Rollback.start ?crash_after:crash_during_rollback ~dir
              {
                owner;
                cone;
                prelude = rollback_prelude ~injected_at:t0 ~cone;
                pre = pre_sexps;
                state;
              }
          with
          | Ok run -> Rollback.restore_all run ~restore
          | Error e -> invalid_arg e);
      rolled_back := cone;
      agreed := Consistency.consistent !m
  | _ -> ());
  let agreed = !agreed in
  tr {|{"ev":"end","t":%d,"agreed":%b,"converged":%b,"sent":%d,"dropped":%d,"retries":%d}|}
    !last_tick agreed !converged !sent !dropped !retries;
  Metrics.add c_sent !sent;
  Metrics.add c_dropped !dropped;
  Metrics.add c_retried !retries;
  if Metrics.is_enabled () then
    Metrics.observe h_ticks (float_of_int !last_tick);
  {
    agreed;
    converged = !converged;
    stats =
      {
        ticks = !last_tick;
        sent = !sent;
        delivered = !delivered;
        dropped = !dropped;
        duplicated = !duplicated;
        deduplicated = !deduplicated;
        retries = !retries;
        stale = !stale;
        crashes = !crashes;
        announcements = !announcements;
        acks = !acks;
        nacks = !nacks;
        aborts = !aborts;
      };
    final = !m;
    trace = Buffer.contents buf;
    injected_at = !injected_at;
    pre_change = !pre_change;
    rolled_back = !rolled_back;
    repairs = !repairs;
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "ticks=%d sent=%d delivered=%d dropped=%d dup=%d dedup=%d retries=%d \
     stale=%d crashes=%d (announce=%d ack=%d nack=%d abort=%d)"
    s.ticks s.sent s.delivered s.dropped s.duplicated s.deduplicated s.retries
    s.stale s.crashes s.announcements s.acks s.nacks s.aborts
