(** Memoized aFSA algebra entry points, keyed by canonical fingerprints
    in per-domain bounded {!Lru} tables. Results are interned (and so
    carry pre-computed fingerprints). Every wrapper degrades to the raw
    operation when the ambient {!Chorev_guard.Budget} is limited, so
    fuel accounting under finite budgets is that of the raw algebra
    (budgets tick on misses only — and under a limited budget
    everything is a miss). This budget rule is the only switch: the
    pipeline calls these wrappers unconditionally. *)

module Afsa = Chorev_afsa.Afsa
module Label = Chorev_afsa.Label

val active : unit -> bool
(** Is memoization in force right now (ambient budget unlimited)? *)

val tau : observer:string -> Afsa.t -> Afsa.t
(** Memoized {!Chorev_afsa.View.tau} (the [tau] table). *)

val difference : Afsa.t -> Afsa.t -> Afsa.t
val union : Afsa.t -> Afsa.t -> Afsa.t
(** Memoized {!Chorev_afsa.Ops} (the [binop] table). *)

val minimize : Afsa.t -> Afsa.t
(** Memoized {!Chorev_afsa.Minimize.minimize} (the [unop] table). *)

val generate : Chorev_bpel.Process.t -> Afsa.t * Chorev_mapping.Table.t
(** Memoized {!Chorev_mapping.Public_gen.generate} (the [generate]
    table), keyed on the physical process ({!Intern.Proc_tbl}, weak
    keys): a fresh process, or a structurally equal copy, misses
    without being rendered. The choreography model derives every
    public through it. *)

val public : Chorev_bpel.Process.t -> Afsa.t

val check_verdict : Afsa.t -> Afsa.t -> bool * Label.t list option
(** Memoized bilateral consistency verdict (consistent?, witness) —
    the [pair] table, keyed by the two views' fingerprints; the
    intersection automaton is not retained. A repeated all-pairs check
    is answered here. *)

val consistent : Afsa.t -> Afsa.t -> bool

val stats : unit -> (string * Lru.stats) list
(** This domain's per-table hit/miss/eviction statistics. *)

val reset : unit -> unit
(** Clear this domain's tables (stats kept). *)
