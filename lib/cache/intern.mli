(** Per-domain aFSA interning over canonical fingerprints: structurally
    equal automata collapse to one physical representative (weak table,
    so interning never leaks). Same DLS discipline as the formula
    hash-consing — nothing here is shared across domains. *)

val canonical : Chorev_afsa.Afsa.t -> Chorev_afsa.Afsa.t
(** The domain's physical representative for this structure (the
    argument itself on first sight). *)

module Proc_tbl : Ephemeron.S with type key = Chorev_bpel.Process.t
(** Tables keyed on the physical process; weak keys, so an entry never
    keeps its process alive. Not thread-safe: one per domain. *)

val process_digest : Chorev_bpel.Process.t -> string
(** Canonical MD5 digest of a private process (via its exact
    s-expression round-trip), memoized per physical process; for
    [Evolution.step_key] and [Model.fingerprint]. *)
