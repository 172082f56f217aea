(** The ADEPT compliance criterion (Rinderle et al., DKE 2004) applied
    to public processes: an instance migrates iff its trace replays on
    the new process and an annotated-accepting continuation remains. *)

module Afsa = Chorev_afsa.Afsa

type verdict =
  | Migratable of { resume_states : int list }
  | Not_compliant of { at : int; label : Chorev_afsa.Label.t }
  | Dead_end of { resume_states : int list }

val pp_verdict : Format.formatter -> verdict -> unit
val show_verdict : verdict -> string

val is_migratable : verdict -> bool
val check : Afsa.t -> Instance.t -> verdict

val partition :
  Afsa.t -> Instance.t list -> Instance.t list * Instance.t list
(** (migratable, blocked). *)

type disposition = Migrate | Finish_on_old | Stuck

val equal_disposition : disposition -> disposition -> bool
val pp_disposition : Format.formatter -> disposition -> unit
val show_disposition : disposition -> string

val dispose :
  old_public:Afsa.t -> new_public:Afsa.t -> Instance.t -> disposition
(** Delayed migration: non-compliant instances may finish on the old
    version when still able to. *)

(** {2 Batch checking}

    {!check} recomputes the emptiness fixpoint of the public process
    per instance; a {!ctx} pays for ε-closures and the annotated
    emptiness analysis once. A ctx is sealed after {!context} returns
    (only immutable maps and fully-built tables are read afterwards),
    so a single ctx is safe to share across pool domains. *)

type ctx

val context : Afsa.t -> ctx
(** Build the shared verdict context for one public process (takes a
    private {!Afsa.copy}; the argument is not retained). *)

val check_ctx : ctx -> Instance.t -> verdict
(** Same verdict as [check (ctx's public)]. Ticks the ambient
    {!Chorev_guard.Budget} once per instance plus once per consumed
    message, so verdict fuel is deterministic. *)

val dispose_ctx : old_ctx:ctx -> new_ctx:ctx -> Instance.t -> disposition
(** Same disposition as {!dispose}; budget-ticked like {!check_ctx}. *)
