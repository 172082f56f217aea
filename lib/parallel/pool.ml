(** Fixed-size domain pool (see pool.mli). *)

module Obs = Chorev_obs.Obs
module Sink = Chorev_obs.Sink
module Metrics = Chorev_obs.Metrics

let c_tasks = Metrics.counter "parallel.pool.tasks"
let c_items = Metrics.counter "parallel.pool.items"
let h_occupancy = Metrics.histogram "parallel.pool.occupancy"

type task = unit -> unit

type shared = {
  lock : Mutex.t;
  nonempty : Condition.t;
  queue : task Queue.t;
  mutable stop : bool;
}

type dpool = {
  n : int;  (** total workers, including the caller during a map *)
  shared : shared;
  workers : unit Domain.t list;  (** n - 1 spawned domains *)
  mutable alive : bool;
}

type t = Sequential | Domains of dpool

let sequential = Sequential
let size = function Sequential -> 1 | Domains d -> d.n

(* Reentrancy guard: set while this domain executes a pool task. A map
   issued from inside a task must not block on the same queue (the
   workers may all be busy with the enclosing batch), so it runs
   sequentially in place. *)
let in_worker_key = Domain.DLS.new_key (fun () -> false)
let in_worker () = Domain.DLS.get in_worker_key

let run_task_guarded task =
  Domain.DLS.set in_worker_key true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set in_worker_key false) task

let pop_or_wait sh =
  Mutex.protect sh.lock (fun () ->
      let rec loop () =
        if sh.stop then None
        else
          match Queue.take_opt sh.queue with
          | Some t -> Some t
          | None ->
              Condition.wait sh.nonempty sh.lock;
              loop ()
      in
      loop ())

let worker_loop sh =
  let rec loop () =
    match pop_or_wait sh with
    | None -> ()
    | Some task ->
        (* Tasks capture their own exception handling; a raise here
           would kill the domain silently. *)
        (try run_task_guarded task with _ -> ());
        loop ()
  in
  loop ()

let create n =
  if n <= 1 then Sequential
  else begin
    let shared =
      {
        lock = Mutex.create ();
        nonempty = Condition.create ();
        queue = Queue.create ();
        stop = false;
      }
    in
    let workers =
      List.init (n - 1) (fun _ -> Domain.spawn (fun () -> worker_loop shared))
    in
    Domains { n; shared; workers; alive = true }
  end

let shutdown = function
  | Sequential -> ()
  | Domains d ->
      if d.alive then begin
        d.alive <- false;
        Mutex.protect d.shared.lock (fun () ->
            d.shared.stop <- true;
            Condition.broadcast d.shared.nonempty);
        List.iter Domain.join d.workers
      end

(* Process-wide registry so repeated [map ~pool:(sized 4)] calls share
   one set of domains. *)
let registry : (int, t) Hashtbl.t = Hashtbl.create 4
let registry_lock = Mutex.create ()

let sized n =
  if n <= 1 then Sequential
  else
    Mutex.protect registry_lock (fun () ->
        match Hashtbl.find_opt registry n with
        | Some p -> p
        | None ->
            let p = create n in
            Hashtbl.add registry n p;
            p)

let () =
  at_exit (fun () ->
      let pools =
        Mutex.protect registry_lock (fun () ->
            Hashtbl.fold (fun _ p acc -> p :: acc) registry [])
      in
      List.iter shutdown pools)

let default_size_ref = ref None

let env_size () =
  match Sys.getenv_opt "CHOREV_DOMAINS" with
  | None -> None
  | Some s -> ( match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | _ -> None)

let default_size () =
  match !default_size_ref with
  | Some n -> n
  | None -> ( match env_size () with Some n -> n | None -> 1)

let set_default_size n = default_size_ref := Some (max 1 n)
let default () = sized (default_size ())

(* Split [arr] into [pieces] contiguous chunks of near-equal length,
   returned as (start, len) pairs. *)
let chunk_bounds len pieces =
  let pieces = max 1 (min pieces len) in
  let base = len / pieces and extra = len mod pieces in
  List.init pieces (fun i ->
      let start = (i * base) + min i extra in
      let stop = ((i + 1) * base) + min (i + 1) extra in
      (start, stop - start))

let map_domains d f xs =
  let input = Array.of_list xs in
  let len = Array.length input in
  if len = 0 then []
  else begin
    Metrics.incr c_tasks;
    Metrics.add c_items len;
    Metrics.observe h_occupancy (float_of_int (min d.n len));
    let output = Array.make len None in
    (* Several chunks per worker absorbs imbalance between items
       without giving up contiguity (cache friendliness, low queue
       traffic). *)
    let chunks = chunk_bounds len (4 * d.n) in
    let remaining = Atomic.make (List.length chunks) in
    let failure = Atomic.make None in
    let done_lock = Mutex.create () in
    let done_cond = Condition.create () in
    let caller_sink = Obs.current_sink () in
    let shared_sink =
      if caller_sink == Sink.silent then Sink.silent
      else Sink.synchronized caller_sink
    in
    let run_chunk (start, n_items) =
      let body () =
        let domain_idx = (Domain.self () :> int) in
        let c_domain =
          Metrics.counter
            (Printf.sprintf "parallel.pool.domain%d.tasks" domain_idx)
        in
        Metrics.incr c_domain;
        Obs.span "parallel.chunk"
          ~attrs:
            [ ("domain", Sink.Int domain_idx); ("items", Sink.Int n_items) ]
          (fun () ->
            for i = start to start + n_items - 1 do
              output.(i) <- Some (f input.(i))
            done)
      in
      (try
         if shared_sink == Sink.silent then body ()
         else Obs.with_sink shared_sink body
       with exn ->
         let bt = Printexc.get_raw_backtrace () in
         ignore (Atomic.compare_and_set failure None (Some (exn, bt))));
      if Atomic.fetch_and_add remaining (-1) = 1 then
        Mutex.protect done_lock (fun () -> Condition.signal done_cond)
    in
    (* Enqueue every chunk, then help drain the queue from this domain;
       when the queue is empty, wait for the workers to finish theirs. *)
    Mutex.protect d.shared.lock (fun () ->
        List.iter (fun c -> Queue.add (fun () -> run_chunk c) d.shared.queue)
          chunks;
        Condition.broadcast d.shared.nonempty);
    let rec help () =
      match
        Mutex.protect d.shared.lock (fun () -> Queue.take_opt d.shared.queue)
      with
      | Some task ->
          run_task_guarded task;
          help ()
      | None -> ()
    in
    help ();
    Mutex.protect done_lock (fun () ->
        while Atomic.get remaining > 0 do
          Condition.wait done_cond done_lock
        done);
    (match Atomic.get failure with
    | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None -> ());
    Array.to_list output
    |> List.map (function Some v -> v | None -> assert false)
  end

let map ?pool f xs =
  let pool = match pool with Some p -> p | None -> default () in
  match pool with
  | Sequential -> List.map f xs
  | Domains _ when in_worker () -> List.map f xs
  | Domains d -> map_domains d f xs
