(** The compliance criterion for dynamic migration.

    Following the authors' process-schema-evolution work that the paper
    builds its outlook on (Rinderle, Reichert, Dadam: "Correctness
    criteria for dynamic changes in workflow systems", DKE 50(1),
    2004), an instance is {e compliant} with a changed schema iff the
    execution log produced so far could also have been produced on the
    new schema. For public processes this means: the conversation trace
    replays as a run prefix of the new aFSA, *and* from the reached
    states an accepting conversation satisfying the mandatory
    annotations is still possible (otherwise the instance would migrate
    straight into a dead protocol). *)

module Afsa = Chorev_afsa.Afsa
module ISet = Afsa.ISet

type verdict =
  | Migratable of { resume_states : int list }
      (** the trace replays; migration can happen now *)
  | Not_compliant of { at : int; label : Chorev_afsa.Label.t }
      (** message [at] (0-based) of the trace has no counterpart in the
          new process *)
  | Dead_end of { resume_states : int list }
      (** the trace replays but no annotated-accepting continuation
          exists from any reached state *)
[@@deriving show]

let is_migratable = function Migratable _ -> true | _ -> false

(** Check one instance against the new public process. *)
let check (new_public : Afsa.t) (inst : Instance.t) : verdict =
  match Instance.replay new_public inst with
  | Error at ->
      let label = List.nth inst.Instance.trace at in
      Not_compliant { at; label }
  | Ok set ->
      (* a continuation exists iff one reached state is [sat] in the
         annotated emptiness fixpoint *)
      let { Chorev_afsa.Emptiness.sat; _ } =
        Chorev_afsa.Emptiness.analyze new_public
      in
      let closure = Chorev_afsa.Epsilon.closure new_public set in
      let good = ISet.inter closure sat in
      if ISet.is_empty good then
        Dead_end { resume_states = ISet.elements closure }
      else Migratable { resume_states = ISet.elements good }

(** Batch check; returns (migratable, blocked) partitions. *)
let partition new_public instances =
  List.partition
    (fun i -> is_migratable (check new_public i))
    instances

(** The paper's §8 also envisions *delayed* migration: an instance
    whose trace is not compliant may still be allowed to finish on the
    old version. [disposition] decides per instance. *)
type disposition =
  | Migrate  (** move to the new version now *)
  | Finish_on_old  (** run to completion on the old version *)
  | Stuck  (** not compliant with the new version and cannot complete
               on the old one either *)
[@@deriving eq, show]

let dispose ~old_public ~new_public inst =
  match check new_public inst with
  | Migratable _ -> Migrate
  | Not_compliant _ | Dead_end _ ->
      (* can it still finish on the old version? *)
      (match Instance.replay old_public inst with
      | Error _ -> Stuck
      | Ok set ->
          let { Chorev_afsa.Emptiness.sat; _ } =
            Chorev_afsa.Emptiness.analyze old_public
          in
          let closure = Chorev_afsa.Epsilon.closure old_public set in
          if ISet.is_empty (ISet.inter closure sat) then Stuck
          else Finish_on_old)

(* ------------------------------------------------------------------ *)
(* Batch context                                                       *)
(* ------------------------------------------------------------------ *)

(** [check] pays the full emptiness fixpoint of the new public per
    instance — fine for one verdict, ruinous for a million. A {!ctx}
    precomputes everything a verdict needs (ε-closures, the annotated
    emptiness [sat] set) once per public process. After [context]
    returns the value is sealed: every later operation only reads the
    automaton's arrays and fully-built hash tables, so one ctx can be
    shared by every pool domain without {!Afsa.copy}-per-task. *)
type ctx = {
  public : Afsa.t;
      (** private copy; only its immutable fields are read after build *)
  start_set : ISet.t;  (** ε-closed start states *)
  closures : (int, ISet.t) Hashtbl.t;  (** sealed after [context] *)
  sat : ISet.t;
}

let context public =
  let a = Afsa.copy public in
  let closures = Hashtbl.create 16 in
  List.iter
    (fun q -> Hashtbl.replace closures q (Chorev_afsa.Epsilon.closure_of a q))
    (Afsa.states a);
  let { Chorev_afsa.Emptiness.sat; _ } = Chorev_afsa.Emptiness.analyze a in
  {
    public = a;
    start_set = Hashtbl.find closures (Afsa.start a);
    closures;
    sat;
  }

let close ctx set =
  ISet.fold
    (fun q acc ->
      match Hashtbl.find_opt ctx.closures q with
      | Some s -> ISet.union s acc
      | None -> ISet.add q acc)
    set ISet.empty

(* One fuel tick per instance plus one per consumed message keeps the
   cost of a verdict deterministic — independent of pool size and of
   which domain runs it — which is what lets per-batch budgets defer
   the same batches on every run. *)
let replay_ctx ctx (inst : Instance.t) =
  let b = Chorev_guard.Budget.ambient () in
  Chorev_guard.Budget.tick b;
  let rec go set i = function
    | [] -> Ok set
    | l :: rest ->
        Chorev_guard.Budget.tick b;
        let next =
          ISet.fold
            (fun q acc ->
              ISet.union (Afsa.step ctx.public q (Chorev_afsa.Sym.L l)) acc)
            set ISet.empty
        in
        if ISet.is_empty next then Error i else go (close ctx next) (i + 1) rest
  in
  go ctx.start_set 0 inst.Instance.trace

let check_ctx ctx (inst : Instance.t) =
  match replay_ctx ctx inst with
  | Error at ->
      let label = List.nth inst.Instance.trace at in
      Not_compliant { at; label }
  | Ok closed ->
      let good = ISet.inter closed ctx.sat in
      if ISet.is_empty good then Dead_end { resume_states = ISet.elements closed }
      else Migratable { resume_states = ISet.elements good }

let dispose_ctx ~old_ctx ~new_ctx inst =
  match check_ctx new_ctx inst with
  | Migratable _ -> Migrate
  | Not_compliant _ | Dead_end _ -> (
      match replay_ctx old_ctx inst with
      | Error _ -> Stuck
      | Ok closed ->
          if ISet.is_empty (ISet.inter closed old_ctx.sat) then Stuck
          else Finish_on_old)
