(** Durable runs: the one plan → commit records → seal → replay and
    continue discipline behind every crash-safe driver in chorev (the
    evolve, migrate, rollback and tenant kinds; DESIGN.md "Durable
    runs").

    A run directory holds exactly two files:

    {v
    DIR/
      plan.json      {"kind":K,"digest":D,"plan":P}, written atomically
      journal.jsonl  {"crc":C,"body":{"plan":D,"record":R}} per line
    v}

    [plan.json] is the run's single commit point: once it exists the
    run exists, and a plan with no records resumes from the start. [D]
    is the MD5 of [P]'s JSON text, so a damaged or hand-edited plan is
    refused rather than replayed, and every record names it, so a
    journal is never replayed against another run's plan. [C] is the
    MD5 of the body text. Every record is appended and fsynced before
    {!Make.commit} returns; a torn final line (the partial write of a
    killed process: bad shape, bad checksum or no newline) is dropped
    on {!Make.load} and cut away by {!Make.reopen}. A kind may mark
    records as seals: a sealed run is finished, and records after a
    seal are an error. *)

exception Simulated_crash of int
(** The kill test hook of every kind: raised once a run opened with
    [crash_after = Some k] holds [k] committed records — right after
    the plan for [k = 0]. The directory is left exactly as a hard kill
    at that point would leave it. *)

module type KIND = sig
  val kind : string
  (** The [kind] field of [plan.json]; what [chorev resume] dispatches
      on. *)

  type plan
  type record

  val plan_to_json : plan -> Json.t
  val plan_of_json : Json.t -> (plan, string) result
  val record_to_json : record -> Json.t
  val record_of_json : Json.t -> (record, string) result

  val is_seal : record -> bool
  (** Does this record finish the run? ([false] for open-ended logs.) *)
end

val kind : dir:string -> (string, string) result
(** The kind named by [DIR/plan.json], without decoding the plan. *)

module Make (K : KIND) : sig
  type t
  (** An open run: its directory, committed-record count and crash
      hook. Holds no file descriptor between commits. *)

  type loaded = {
    plan : K.plan;
    digest : string;  (** of the plan; every record carries it *)
    records : K.record list;  (** committed, in journal order *)
    sealed : bool;  (** the last record is a seal *)
    torn : bool;  (** a torn final line was dropped *)
    valid_bytes : int;  (** end of the last committed record *)
  }

  val create : ?crash_after:int -> dir:string -> K.plan -> (t, string) result
  (** Create [dir] if needed and write its plan. [Error] if [dir]
      already holds a plan (of any kind) or a journal, or cannot be
      written. *)

  val load : dir:string -> (loaded, string) result
  (** Read and verify a run: the plan's kind and digest, every record's
      checksum and plan digest, and that nothing follows a seal. Never raises; errors
      name the offending file. *)

  val reopen : ?crash_after:int -> dir:string -> loaded -> t
  (** Continue a loaded, unsealed run: cut a torn tail away, then
      count the committed records towards [crash_after]. *)

  val commit : t -> K.record -> unit
  (** Append one record durably, then apply the crash hook. *)
end
