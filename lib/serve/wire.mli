(** The serve wire protocol: versioned, newline-delimited JSON.

    One request per line in, one response per line out, correlated by
    [id]; the [v] field is the protocol version ({!version}) and is
    checked on decode so a future v2 can evolve the schema without
    guessing. Processes travel as the exact-round-tripping sexps of
    {!Chorev_bpel.Sexp}, and the JSON syntax is the journals' own
    {!Chorev_wal.Json} — no external JSON dependency.

    Responses carry no wall-clock data except for [Stats], so a
    response stream is a pure function of the request stream and the
    server options — the property the golden tests and the CI smoke
    diff lean on. *)

module Json = Chorev_wal.Json

val version : int
(** Currently [1]. *)

(** {1 Request classes}

    Each request names a class; the server mints the request's
    {!Chorev_guard.Budget} from it. Fuel bounds are deterministic
    (identical trips at every pool size); the deadlines are generous
    backstops. [Bulk] — the default when the field is absent — is
    unlimited, making the verdict exactly {!Evolution.run}'s under the
    default config. *)

type request_class = Interactive | Standard | Bulk

val class_to_string : request_class -> string
val class_of_string : string -> (request_class, string) result

val class_budgets :
  request_class -> Chorev_guard.Budget.spec * Chorev_guard.Budget.spec
(** [(op_budget, round_budget)] for the class. *)

val class_has_deadline : request_class -> bool
(** Does the class declare a deadline? (Deadline-bearing requests are
    shed earlier under load: their headroom shrinks as the queue
    grows.) *)

(** {1 Requests} *)

type op =
  | Register of { tenant : string; processes : string list }
      (** private processes as sexps, one per party *)
  | Evolve of {
      tenant : string;
      owner : string;
      changed : string;  (** the owner's new private process, sexp *)
      klass : request_class;
    }
  | Query of { tenant : string }
  | Migrate_status of { tenant : string }
  | Publish of { tenant : string; party : string; instances : int; seed : int }
      (** start [instances] seeded instances on [party]'s current
          schema version, then batch-migrate every running instance of
          that party onto the model's current public *)
  | Stats

type request = { id : int; op : op }

val tenant_of : op -> string option
(** [None] for [Stats] (the only tenant-less op). *)

val request_to_string : request -> string
(** One line, no trailing newline. *)

val request_of_string : string -> (request, int * string) result
(** [Error (id, msg)]: [id] is the request id when one could still be
    recovered from the malformed line (0 otherwise), so the error
    response stays correlated. A line over [max_line] bytes (16 MiB)
    is refused with [line_too_long]. *)

val max_line : int
val line_too_long : int * string

val blank : string -> bool
(** An empty or all-whitespace line of at most [max_line] bytes: pipe
    mode, the oracle and replay skip it, and it gets no response. A
    longer one is answered with [line_too_long] like any other. *)

(** {1 Responses} *)

type party_status = {
  party : string;
  service : string;  (** stable {!Chorev_discovery.Registry} id *)
  version : int;  (** public-process version, bumped per evolution *)
  running : int;  (** live instances across the party's schema versions *)
  schemas : int;  (** live (un-retired) schema versions *)
}

type body =
  | Registered of {
      tenant : string;
      parties : string list;
      versions : int list;  (** one per party, same order *)
      digest : string;  (** {!Chorev_journal.Evolve.model_digest} *)
    }
  | Evolved of {
      consistent : bool;
      rounds : int;
      digest : string;
      degraded : bool;  (** some step hit its budget — verdict is
                            conservative, not full-fidelity *)
    }
  | Queried of {
      parties : string list;
      consistent : bool;
      digest : string;
      evolutions : int;
    }
  | Migration of party_status list
  | Published of {
      party : string;
      to_version : int;
      migrated : int;
      finishing : int;
      stuck : int;  (** left on their old version, unable to finish *)
      total : int;
    }
  | Stats_snapshot of (string * Json.t) list

type error =
  [ `Bad_request of string
  | `Unknown_tenant of string
  | `Duplicate_tenant of string
  | `Unknown_party of string
  | `Invalid_model of string
  | `Overloaded
  | `Failed of string ]

val error_code : error -> string
(** The stable machine-readable code ("overloaded", "unknown-tenant",
    …) carried on the wire. *)

type response = { id : int; result : (body, error) result }

val response_to_string : response -> string
val response_of_string : string -> (response, string) result

(** {1 Body builders}

    Shared by the server and the independent oracle in {!Driver}, so
    "byte-identical responses" compares the two schedulers, not two
    hand-rolled encoders. *)

val evolved_of_report :
  digest:string -> Chorev_choreography.Evolution.report -> body
(** [digest] is [Chorev_journal.Evolve.model_digest] of the report's
    choreography, which the caller computes (the server once per
    evolve, and caches it for queries). *)

val report_degraded : Chorev_choreography.Evolution.report -> bool
