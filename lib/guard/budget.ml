(** Budgets: fuel + deadline (see budget.mli). *)

module Metrics = Chorev_obs.Metrics

type reason = [ `Fuel | `Deadline ]
type info = { reason : reason; spent : int; elapsed_s : float }

exception Expired of info

(* The deadline is only polled every [poll_mask + 1] ticks so the hot
   path stays a decrement and two compares. *)
let poll_mask = 255

type t = {
  mutable fuel_left : int; (* max_int = no fuel bound *)
  mutable spent : int;
  mutable countdown : int; (* ticks until the next deadline poll *)
  mutable tripped : info option;
  deadline : float; (* absolute, infinity = none *)
  started : float;
}

let now () = Unix.gettimeofday ()

let unlimited =
  {
    fuel_left = max_int;
    spent = 0;
    countdown = max_int;
    tripped = None;
    deadline = infinity;
    started = 0.;
  }

let create ?fuel ?timeout_s () =
  let started = now () in
  {
    fuel_left = (match fuel with Some f -> max 0 f | None -> max_int);
    spent = 0;
    countdown = poll_mask;
    tripped = None;
    deadline =
      (match timeout_s with Some s -> started +. s | None -> infinity);
    started;
  }

type spec = { fuel : int option; timeout_s : float option }

let spec_unlimited = { fuel = None; timeout_s = None }
let spec_is_unlimited s = s.fuel = None && s.timeout_s = None

let of_spec spec =
  if spec_is_unlimited spec then unlimited
  else create ?fuel:spec.fuel ?timeout_s:spec.timeout_s ()

let is_unlimited b = b == unlimited
let spent b = b.spent
let exceeded b = b.tripped

let exceeded_total = Metrics.counter "guard.exceeded_total"

let trip b reason =
  let info = { reason; spent = b.spent; elapsed_s = now () -. b.started } in
  b.tripped <- Some info;
  Metrics.incr exceeded_total;
  raise (Expired info)

let poll b = if now () > b.deadline then trip b `Deadline

let tick_slow b =
  (* trip when a tick is {e attempted} with no fuel left, so a fuel-N
     budget admits exactly N ticks and reports [spent = N] *)
  if b.fuel_left <= 0 then trip b `Fuel;
  b.spent <- b.spent + 1;
  b.fuel_left <- b.fuel_left - 1;
  b.countdown <- b.countdown - 1;
  if b.countdown <= 0 then begin
    b.countdown <- poll_mask;
    poll b
  end

let[@inline] tick b = if b != unlimited then tick_slow b

let sub b spec =
  if b == unlimited then of_spec spec
  else
    let started = now () in
    let fuel_left =
      match spec.fuel with
      | Some f -> max 0 (min f b.fuel_left)
      | None -> b.fuel_left
    in
    let deadline =
      match spec.timeout_s with
      | Some s -> Float.min (started +. s) b.deadline
      | None -> b.deadline
    in
    {
      fuel_left;
      spent = 0;
      countdown = poll_mask;
      tripped = None;
      deadline;
      started;
    }

let charge b n =
  if b != unlimited && n > 0 then begin
    (* spending exactly down to zero is fine; only an overdraw trips *)
    if n > b.fuel_left then trip b `Fuel;
    b.spent <- b.spent + n;
    b.fuel_left <- b.fuel_left - n;
    poll b
  end

(* ------------------------------ ambient ----------------------------- *)

let ambient_key = Domain.DLS.new_key (fun () -> unlimited)
let ambient () = Domain.DLS.get ambient_key

let with_ambient b f =
  let prev = Domain.DLS.get ambient_key in
  Domain.DLS.set ambient_key b;
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient_key prev) f

let fuel_spent = Metrics.counter "guard.fuel_spent"

(* Only convert an [Expired] that belongs to [b]; a trip of an
   enclosing budget keeps unwinding so the outer [run] sees it. *)
let owns b info =
  match b.tripped with Some i -> i == info | None -> false

let run b f =
  let before = b.spent in
  let record () = Metrics.add fuel_spent (b.spent - before) in
  match with_ambient b f with
  | v ->
      record ();
      `Done v
  | exception Expired info when owns b info ->
      record ();
      `Exceeded info
  | exception e ->
      record ();
      raise e

(* ----------------------------- printing ----------------------------- *)

let pp_reason ppf = function
  | `Fuel -> Fmt.string ppf "fuel"
  | `Deadline -> Fmt.string ppf "deadline"

let pp_info ppf i =
  Fmt.pf ppf "%a after %d units (%.3fs)" pp_reason i.reason i.spent
    i.elapsed_s
