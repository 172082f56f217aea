(** {1 chorev — controlled evolution of process choreographies}

    An OCaml implementation of Rinderle, Wombacher & Reichert,
    {e On the Controlled Evolution of Process Choreographies}
    (ICDE 2006), together with every substrate the paper builds on.

    The modules below re-export the whole public API; see README.md for
    a guided tour and DESIGN.md for the architecture.

    {2 Formal substrate}
    - {!Formula} — the annotation logic (Def. 1)
    - {!Label}, {!Sym}, {!Afsa} — annotated finite state automata
      (Def. 2)
    - {!Ops} — intersection / difference / union / complement
      (Defs. 3, 4)
    - {!Emptiness}, {!Consistency} — the annotated emptiness test and
      bilateral consistency (Sec. 3.2)
    - {!View} — bilateral views τ_P (Sec. 3.4)

    {2 Process substrate}
    - {!Bpel} — block-structured private processes (Sec. 2)
    - {!Public_gen}, {!Table} — public-process generation and the
      mapping table (Sec. 3.3)

    {2 The paper's contribution}
    - {!Change} — change operations and their classification (Sec. 4)
    - {!Propagate} — propagation of variant changes (Sec. 5)
    - {!Choreography} — the multi-party model, the Fig. 4 pipeline, and
      the decentralized consistency protocol (Sec. 6)

    {2 Validation and evaluation substrate}
    - {!Runtime} — a synchronous execution engine (deadlock-freeness)
    - {!Workload} — synthetic generators for benchmarks and property
      tests
    - {!Scenario} — the paper's procurement example (Figs. 1–18)

    {2 Incremental re-checking}
    - {!Fingerprint}, {!Cache} — structural fingerprints, hash-consed
      interning and fingerprint-keyed memoization of the algebra
      (DESIGN.md §10)

    {2 Robustness}
    - {!Guard} — fuel/deadline budgets and graceful-degradation
      markers for the algebra hot loops (DESIGN.md §9)
    - {!Wal} — durable runs (plan.json + checksummed journal.jsonl)
      under every crash-safe driver, and {!Journal} — the resumable
      evolution driver on top of them (DESIGN.md §9.3)
    - {!Repair} — self-healing evolution: amendment search over
      counterexample witnesses, and causal rollback of half-propagated
      changes (DESIGN.md §14)

    {2 Observability}
    - {!Obs} — trace spans, metrics counters and profiling sinks for
      the whole pipeline (DESIGN.md §7) *)

(* Formal substrate *)
module Formula = struct
  include Chorev_formula.Syntax
  module Eval = Chorev_formula.Eval
  module Simplify = Chorev_formula.Simplify
  module Sat = Chorev_formula.Sat
  module Pp = Chorev_formula.Pp
  module Parse = Chorev_formula.Parse
end

module Label = Chorev_afsa.Label
module Sym = Chorev_afsa.Sym
module Afsa = struct
  include Chorev_afsa.Afsa
  module Pp = Chorev_afsa.Pp
end
module Epsilon = Chorev_afsa.Epsilon
module Determinize = Chorev_afsa.Determinize
module Complete = Chorev_afsa.Complete
module Minimize = Chorev_afsa.Minimize
module Ops = Chorev_afsa.Ops
module Emptiness = Chorev_afsa.Emptiness
module Ablation = Chorev_afsa.Ablation
module Consistency = Chorev_afsa.Consistency
module View = Chorev_afsa.View
module Trace = Chorev_afsa.Trace
module Fingerprint = Chorev_afsa.Fingerprint
module Equiv = Chorev_afsa.Equiv
module Dot = Chorev_afsa.Dot

(* Process substrate *)
module Bpel = struct
  module Types = Chorev_bpel.Types
  module Activity = Chorev_bpel.Activity
  module Process = Chorev_bpel.Process
  module Validate = Chorev_bpel.Validate
  module Edit = Chorev_bpel.Edit
  module Pp = Chorev_bpel.Pp
  module Sexp = Chorev_bpel.Sexp
end

module Table = Chorev_mapping.Table
module Public_gen = Chorev_mapping.Public_gen
module Firsts = Chorev_mapping.Firsts
module Skeleton = Chorev_mapping.Skeleton

(* The paper's contribution *)
module Change = struct
  module Ops = Chorev_change.Ops
  module Classify = Chorev_change.Classify
end

module Propagate = struct
  module Localize = Chorev_propagate.Localize
  module Suggest = Chorev_propagate.Suggest
  module Engine = Chorev_propagate.Engine
end

module Choreography = struct
  module Model = Chorev_choreography.Model
  module Consistency = Chorev_choreography.Consistency
  module Evolution = Chorev_choreography.Evolution
  module Protocol = Chorev_choreography.Protocol
  module Global = Chorev_choreography.Global
end

(* The one configuration record (engine, pipeline, journal driver and
   per-request server overrides are all the same type) *)
module Config = Chorev_config.Config

(* Resource governance: budgets and degrade markers *)
module Guard = struct
  module Budget = Chorev_guard.Budget
  module Degrade = Chorev_guard.Degrade
end

(* Crash-safe evolution: the [evolve] kind of durable run *)
module Journal = Chorev_journal

(* The durable substrate every run sits on (JSON, fsync'd files, the
   plan + checksummed journal run layout) *)
module Wal = struct
  module Json = Chorev_wal.Json
  module Dir = Chorev_wal.Dir
  module Run = Chorev_wal.Run
end

(* Self-healing repair: amendment search + causal rollback
   (DESIGN.md §14) *)
module Repair = struct
  module Amend = Chorev_repair.Amend
  module Rollback = Chorev_repair.Rollback
end

(* Distributed simulation of the Sec. 6 protocol over faulty links *)
module Sim = struct
  include Chorev_sim.Sim
  module Fault = Chorev_sim.Fault
  module Eventq = Chorev_sim.Eventq
  module Soak = Chorev_sim.Soak
end

(* Validation and evaluation substrate *)
module Runtime = struct
  module Exec = Chorev_runtime.Exec
  module Conformance = Chorev_runtime.Conformance
end

(* Extensions following the paper's Sec. 6 building blocks and Sec. 8
   outlook *)
module Migration = struct
  module Instance = Chorev_migration.Instance
  module Compliance = Chorev_migration.Compliance
  module Versions = Chorev_migration.Versions
end

module Discovery = Chorev_discovery.Registry

(* Incremental re-checking: interning and memoization (DESIGN.md §10);
   the cross-round step cache is [Choreography.Evolution.Cache] *)
module Cache = struct
  module Lru = Chorev_cache.Lru
  module Intern = Chorev_cache.Intern
  module Memo = Chorev_cache.Memo
end

module Workload = struct
  module Gen_afsa = Chorev_workload.Gen_afsa
  module Gen_process = Chorev_workload.Gen_process
  module Gen_change = Chorev_workload.Gen_change
  module Scale = Chorev_workload.Scale
end

module Scenario = struct
  module Procurement = Chorev_scenario.Procurement
  module Fig5 = Chorev_scenario.Fig5
  module Report = Chorev_scenario.Report
end

(* Batched instance migration at scale (chorev migrate; DESIGN.md §13) *)
module Migrate = struct
  module Population = Chorev_migrate.Population
  module Engine = Chorev_migrate.Migrate
end

(* The multi-tenant evolution service (chorev serve; DESIGN.md §11) *)
module Serve = struct
  module Wire = Chorev_serve.Wire
  module Tenant = Chorev_serve.Tenant
  module Server = Chorev_serve.Server
  module Driver = Chorev_serve.Driver
end

(* Observability *)
module Obs = struct
  include Chorev_obs.Obs
  module Sink = Chorev_obs.Sink
  module Metrics = Chorev_obs.Metrics
  module Profile = Chorev_obs.Profile
  module Alloc = Chorev_obs.Alloc
end

(* Multicore fan-out *)
module Parallel = struct
  module Pool = Chorev_parallel.Pool
end
