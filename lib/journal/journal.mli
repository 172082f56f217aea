(** A durable write-ahead journal for evolution runs (DESIGN.md §9).

    Layout of a journal directory:

    {v
    DIR/
      snapshot/<party>.sexp   -- the pre-change private processes
      changed.sexp            -- the owner's changed private process
      journal.jsonl           -- one checksummed JSON record per line
    v}

    Every line of [journal.jsonl] is
    [{"crc":"<md5-hex-of-body>","body":<record>}], appended with an
    [fsync] before the writer returns, so a record that {!append}
    returned for is durable. The snapshot files are written atomically
    (tmp + fsync + rename) before the first record. A reader verifies
    every checksum and drops a torn final line (the partial write of a
    crashed process); corruption anywhere {e before} the tail is an
    error, not a truncation.

    Record semantics (see {!Evolve} for the driver): [Start] opens a
    run, one [Round] per completed evolution round is the commit point
    for that round, and [Done] seals the run.

    The generic layers — {!Chorev_wal.Json}, {!Chorev_wal.Wal} and
    {!Chorev_wal.Dir} — live in [Chorev_wal], shared with the migration
    checkpoint log of [Chorev_migrate] and the repair rollback journal
    of [Chorev_repair]. *)

type record =
  | Start of { owner : string; parties : string list; digest : string }
      (** [digest] is {!model_digest} of the pre-change model *)
  | Round of {
      index : int;
      originator : string;
      changed : string;  (** the originator's new private process, sexp *)
      adapted : (string * string) list;
          (** auto-adapted partners, [(party, process sexp)], in exactly
              the order [Evolution.run_round] returned them — replay
              feeds this list to [Evolution.surviving_pending], whose
              output order must match the live loop's *)
      summary : string;  (** rendered [Evolution.pp_round] *)
    }
  | Done of { consistent : bool; digest : string }

val record_to_json : record -> Chorev_wal.Json.t
val record_of_json : Chorev_wal.Json.t -> (record, string) result

(** {2 Writing} *)

type writer

val create : dir:string -> writer
(** Create [DIR] (and [DIR/snapshot]) if needed and open
    [DIR/journal.jsonl] for append. Raises [Sys_error]/[Unix_error] on
    filesystem failure. *)

val append : writer -> record -> unit
(** Serialize, checksum, append one line and [fsync]. When [append]
    returns, the record is durable. *)

val close : writer -> unit

(** {2 Reading} *)

type read_result = {
  records : record list;
  torn : bool;  (** a partial/corrupt final line was dropped *)
  valid_bytes : int;
      (** byte offset of the end of the last valid record; a resuming
          writer truncates the file here before appending *)
}

val read : dir:string -> (read_result, string) result
(** [Error] if the journal file is missing, or if a line {e before} the
    final one fails its checksum or does not parse. *)

val reopen : dir:string -> valid_bytes:int -> writer
(** Truncate [DIR/journal.jsonl] to [valid_bytes] (discarding a torn
    tail) and open it for append. *)

(** {2 Snapshots} *)

val write_snapshot :
  dir:string -> Chorev_choreography.Model.t -> changed:Chorev_bpel.Process.t -> unit
(** Write every party's private process to [DIR/snapshot/<party>.sexp]
    and the changed process to [DIR/changed.sexp], each atomically
    (tmp + fsync + rename). *)

val read_snapshot :
  dir:string ->
  (Chorev_choreography.Model.t * Chorev_bpel.Process.t, string) result
(** Rebuild the pre-change model ({!Chorev_choreography.Model.of_processes}
    over the snapshot files; publics and tables re-derived) and the
    changed process. *)

val model_digest : Chorev_choreography.Model.t -> string
(** Hex digest over every party's name and private-process sexp, in
    party order — two models with equal digests evolve identically. *)
