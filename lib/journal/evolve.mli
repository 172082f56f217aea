(** Crash-safe evolution: {!Chorev_choreography.Evolution.run_from}
    with one durable record per round, as the [evolve] kind of
    {!Chorev_wal.Run} (DESIGN.md "Durable runs"). A killed run
    {!resume}s at the round where the process died and finishes with a
    byte-identical outcome.

    - The plan is the pre-change model (every party's private process),
      the owner and its changed process.
    - A [Round] record is the commit point of its round: it is durable
      {e before} the loop moves on, so on restart every committed round
      is replayed from its record and every other round runs live.
    - Replay never re-runs the algebra: the record holds each adapted
      partner's new private process (an exact-round-tripping sexp on
      disk), and {!Chorev_choreography.Evolution.replay_round} rebuilds the
      pending work with the live loop's own filter.
    - [Done] seals the run with the final model's digest and
      consistency verdict, which a sealed replay recomputes and
      checks. *)

type plan = {
  model : Chorev_choreography.Model.t;  (** before the change *)
  owner : string;
  changed : Chorev_bpel.Process.t;  (** the owner's new private process *)
}

type record =
  | Round of {
      index : int;
      originator : string;
      adapted : (string * Chorev_bpel.Process.t) list;
          (** auto-adapted partners and their new private processes, in
              the order the round returned them *)
      summary : string;  (** rendered [Evolution.pp_round] *)
    }
  | Done of { consistent : bool; digest : string }

module Kind :
  Chorev_wal.Run.KIND with type plan = plan and type record = record
(** The [evolve] codec. *)

type outcome = {
  report : Chorev_choreography.Evolution.report;
      (** final model and verdict; [rounds] holds the rounds this call
          ran live (all of them for a fresh run, none for a sealed
          replay) *)
  round_logs : string list;  (** every round, replayed ones included *)
  digest : string;  (** {!model_digest} of the final model *)
  replayed : int;  (** rounds restored from the journal (0 = fresh run) *)
}

val run :
  ?config:Chorev_config.Config.t ->
  ?cache:Chorev_choreography.Evolution.Cache.t ->
  ?crash_after:int ->
  dir:string ->
  Chorev_choreography.Model.t ->
  owner:string ->
  changed:Chorev_bpel.Process.t ->
  (outcome, string) result
(** Journaled evolution into [dir], which must not already hold a run.
    [crash_after] is the {!Chorev_wal.Run.Simulated_crash} hook. *)

val resume :
  ?config:Chorev_config.Config.t ->
  ?cache:Chorev_choreography.Evolution.Cache.t ->
  ?crash_after:int ->
  dir:string ->
  unit ->
  (outcome, string) result
(** Finish a (possibly interrupted) run: committed rounds are replayed,
    the rest run live and are committed; a sealed run is replayed and
    its digest and verdict checked. [config] must match the original run's
    ([auto_apply], budgets and [repair] change results; the pool size
    does not). *)

val model_digest : Chorev_choreography.Model.t -> string
(** Hex digest over every party's name and private-process sexp, in
    party order — two models with equal digests evolve identically. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** The stable textual form both [chorev evolve --journal] and
    [chorev resume] print — byte-identical between an uninterrupted run
    and a kill + resume. *)
