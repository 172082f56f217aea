(* The observability layer: span nesting/ordering over a full evolve
   run, counter values on known small automata, the silent-sink golden
   diff, and the near-zero-overhead guarantee (DESIGN.md §7). *)

module C = Chorev
module M = C.Choreography.Model
module Ev = C.Choreography.Evolution
module P = C.Scenario.Procurement
module Sink = C.Obs.Sink
module Metrics = C.Obs.Metrics

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let procurement () = M.of_processes (List.map snd P.parties)

(* Span-coverage assertions document the *full* Fig. 4 trace, so start
   from a cold memo: a warm one (per-domain, shared across tests)
   legitimately elides steps and their spans. *)
let evolve_traced () =
  C.Cache.Memo.reset ();
  let sink, events = Sink.memory () in
  let rep =
    match
      C.Obs.with_sink sink (fun () ->
          Ev.run (procurement ()) ~owner:"A" ~changed:P.accounting_cancel)
    with
    | Ok r -> r
    | Error (`Unknown_party p) -> failwith p
  in
  (rep, events ())

let opens events =
  List.filter_map (function Sink.Open (s, _) -> Some s | _ -> None) events

let count_opens name events =
  List.length (List.filter (fun (s : Sink.span) -> s.Sink.name = name) (opens events))

(* ------------------------- span structure -------------------------- *)

let test_spans_balanced_and_nested () =
  let _, events = evolve_traced () in
  check_bool "events recorded" true (events <> []);
  (* every Open has a matching Close; parent/depth follow a strict
     stack discipline *)
  let stack = ref [] in
  List.iter
    (fun ev ->
      match ev with
      | Sink.Open (s, _) ->
          let expected_parent =
            match !stack with [] -> None | (p : Sink.span) :: _ -> Some p.Sink.id
          in
          check_bool "parent is innermost open span" true
            (s.Sink.parent = expected_parent);
          check_int "depth = number of open ancestors" (List.length !stack)
            s.Sink.depth;
          stack := s :: !stack
      | Sink.Close (s, _, elapsed) ->
          check_bool "elapsed non-negative" true (elapsed >= 0.0);
          (match !stack with
          | top :: rest ->
              check_int "close matches innermost open" top.Sink.id s.Sink.id;
              stack := rest
          | [] -> Alcotest.fail "close without open"))
    events;
  check_int "all spans closed" 0 (List.length !stack);
  (* ids are unique among opens *)
  let ids = List.map (fun (s : Sink.span) -> s.Sink.id) (opens events) in
  check_int "unique ids" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_spans_cover_fig4_steps () =
  let rep, events = evolve_traced () in
  (* cancel change: round 1 by A touches partners B (variant) and L
     (invariant); B's adaptation triggers round 2 by B with an
     unchanged public view *)
  check_int "two rounds in report" 2 (List.length rep.Ev.rounds);
  check_int "one evolve span" 1 (count_opens "evolve" events);
  check_int "one round span per round" 2 (count_opens "round" events);
  check_int "one regenerate span per round" 2 (count_opens "regenerate" events);
  check_int "one partner span per partner" 2 (count_opens "partner" events);
  check_int "one classify span per partner" 2 (count_opens "classify" events);
  check_int "one propagate span (B only)" 1 (count_opens "propagate" events);
  List.iter
    (fun step ->
      check_int (step ^ " span") 1 (count_opens step events))
    [ "view"; "delta"; "localize"; "suggest"; "apply" ];
  check_bool "re-check spans present" true (count_opens "re-check" events >= 1);
  check_bool "public_gen spans present" true
    (count_opens "public_gen" events >= 2);
  (* the pipeline steps appear in Fig. 4 order *)
  let order = List.map (fun (s : Sink.span) -> s.Sink.name) (opens events) in
  let index name =
    let rec go i = function
      | [] -> Alcotest.fail (name ^ " span missing")
      | n :: _ when n = name -> i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 order
  in
  check_bool "regenerate before classify" true
    (index "regenerate" < index "classify");
  check_bool "classify before view" true (index "classify" < index "view");
  check_bool "view before delta" true (index "view" < index "delta");
  check_bool "delta before localize" true (index "delta" < index "localize");
  check_bool "localize before suggest" true
    (index "localize" < index "suggest");
  check_bool "suggest before apply" true (index "suggest" < index "apply");
  check_bool "apply before first re-check" true
    (index "apply" < index "re-check")

let test_span_attrs () =
  let _, events = evolve_traced () in
  let rounds =
    List.filter (fun (s : Sink.span) -> s.Sink.name = "round") (opens events)
  in
  (match rounds with
  | r1 :: r2 :: _ ->
      check_bool "round 1 originated by A" true
        (List.assoc_opt "originator" r1.Sink.attrs = Some (Sink.Str "A"));
      check_bool "round 2 originated by B" true
        (List.assoc_opt "originator" r2.Sink.attrs = Some (Sink.Str "B"))
  | _ -> Alcotest.fail "expected two round spans");
  let partners =
    List.filter_map
      (fun (s : Sink.span) ->
        if s.Sink.name = "partner" then List.assoc_opt "partner" s.Sink.attrs
        else None)
      (opens events)
  in
  check_bool "partner spans name B and L" true
    (List.sort compare partners = [ Sink.Str "B"; Sink.Str "L" ])

(* ----------------------------- counters ----------------------------- *)

let with_metrics f =
  Metrics.enabled := true;
  Metrics.reset ();
  Fun.protect ~finally:(fun () -> Metrics.enabled := false) f

let counter_value name =
  match List.assoc_opt name (Metrics.counters ()) with
  | Some v -> v
  | None -> Alcotest.fail ("counter not registered: " ^ name)

let test_counters_fig5_product () =
  with_metrics @@ fun () ->
  let i = C.Ops.intersect C.Scenario.Fig5.party_a C.Scenario.Fig5.party_b in
  check_int "one intersect" 1 (counter_value "afsa.ops.intersect");
  check_int "product pairs = states of the product" (C.Afsa.num_states i)
    (counter_value "afsa.product.pairs");
  check_bool "edges counted" true (counter_value "afsa.product.edges" >= 1);
  (* the Fig. 5 intersection is annotated-empty; deciding that is one
     emptiness fixpoint run *)
  check_bool "fig5 intersection empty" true (C.Emptiness.is_empty i);
  check_int "one emptiness run" 1 (counter_value "afsa.emptiness.runs");
  check_bool "fixpoint iterated" true
    (counter_value "afsa.emptiness.iterations" >= 1)

let test_counters_evolution_pipeline () =
  (* the memo is shared by this executable's tests: start it cold, so
     the generation count below does not depend on test order *)
  C.Cache.Memo.reset ();
  with_metrics @@ fun () ->
  (match Ev.run (procurement ()) ~owner:"A" ~changed:P.accounting_cancel with
  | Ok rep -> check_bool "consistent" true rep.Ev.consistent
  | Error _ -> Alcotest.fail "evolve failed");
  check_int "one evolution run" 1 (counter_value "evolution.runs");
  check_int "two rounds" 2 (counter_value "evolution.rounds");
  check_int "one propagation (B)" 1 (counter_value "propagate.runs");
  check_int "two classifications" 2 (counter_value "change.classify.runs");
  check_int "one variant verdict" 1 (counter_value "change.classify.variant");
  check_bool "suggestions generated" true
    (counter_value "propagate.suggestions.generated" >= 1);
  check_int "one suggestion set applied" 1
    (counter_value "propagate.suggestions.applied");
  check_bool "public processes regenerated" true
    (counter_value "mapping.public_gen.runs" >= 3);
  check_bool "formula cache hit at least once" true
    (counter_value "formula.simplify.hits" >= 1)

(* [afsa.minimize.table_cells] counts the k·(n+1) cells of the
   virtually-completed table, which only the empty-language fallback
   builds; the live-core path adds nothing. *)
let test_counters_minimize_table_cells () =
  with_metrics @@ fun () ->
  let l n = C.Sym.L (C.Label.make ~sender:"A" ~receiver:"B" n) in
  let live = C.Public_gen.public P.buyer_process in
  check_bool "live input deterministic" true (C.Afsa.is_deterministic live);
  ignore (C.Minimize.minimize live);
  check_int "non-empty minimize: no table" 0
    (counter_value "afsa.minimize.table_cells");
  Metrics.reset ();
  (* deterministic, two states, two labels, no final state *)
  let dead =
    C.Afsa.make ~start:0 ~finals:[]
      ~edges:[ (0, l "a", 1); (1, l "b", 1) ]
      ()
  in
  ignore (C.Minimize.minimize dead);
  check_int "one run" 1 (counter_value "afsa.minimize.runs");
  check_int "empty-language minimize: k*(n+1) cells" (2 * (2 + 1))
    (counter_value "afsa.minimize.table_cells")

let test_counters_disabled_stay_zero () =
  Metrics.enabled := true;
  Metrics.reset ();
  Metrics.enabled := false;
  ignore (C.Ops.intersect C.Scenario.Fig5.party_a C.Scenario.Fig5.party_b);
  check_int "no pairs counted while disabled" 0
    (counter_value "afsa.product.pairs");
  check_int "no intersects counted while disabled" 0
    (counter_value "afsa.ops.intersect")

(* --------------------------- golden diff ---------------------------- *)

(* The silent sink and enabled metrics must not change what the user
   sees: pp_report output is byte-identical with observability on. *)
let test_silent_sink_changes_no_output () =
  let render () =
    match Ev.run (procurement ()) ~owner:"A" ~changed:P.accounting_cancel with
    | Ok rep -> Fmt.str "%a" Ev.pp_report rep
    | Error _ -> Alcotest.fail "evolve failed"
  in
  let plain = render () in
  check_bool "report non-trivial" true (String.length plain > 50);
  let observed =
    Metrics.enabled := true;
    Metrics.reset ();
    Fun.protect ~finally:(fun () -> Metrics.enabled := false) @@ fun () ->
    C.Obs.with_sink Sink.silent render
  in
  Alcotest.(check string) "silent sink: identical report" plain observed;
  (* a memory sink (tracing on) must not change the report either *)
  let sink, _ = Sink.memory () in
  let traced = C.Obs.with_sink sink render in
  Alcotest.(check string) "memory sink: identical report" plain traced

(* ------------------------- overhead guard --------------------------- *)

(* Flags off, the instrumentation on the algebra hot path must be a
   single load-and-branch. Wall-clock comparisons are noisy in CI, so
   the bound is deliberately generous: disabled-counters runtime within
   4x of itself re-measured, and enabled-silent within 4x of disabled
   (both min-of-5). A real regression (counting work per worklist item,
   or spans firing with tracing off) shows up as 10x+. *)
let test_near_zero_overhead_when_disabled () =
  let pa, pb = C.Workload.Scale.ladder 100 in
  let a = C.Public_gen.public pa and b = C.Public_gen.public pb in
  let time_once () =
    let t0 = Unix.gettimeofday () in
    ignore (C.Ops.intersect a b);
    Unix.gettimeofday () -. t0
  in
  let min_of n f =
    List.fold_left min infinity (List.init n (fun _ -> f ()))
  in
  ignore (time_once ());
  (* warm up *)
  let disabled = min_of 5 time_once in
  let enabled_silent =
    Metrics.enabled := true;
    Fun.protect ~finally:(fun () -> Metrics.enabled := false) @@ fun () ->
    C.Obs.with_sink Sink.silent (fun () -> min_of 5 time_once)
  in
  check_bool
    (Printf.sprintf
       "enabled+silent (%.3f ms) within 4x of disabled (%.3f ms)"
       (enabled_silent *. 1e3) (disabled *. 1e3))
    true
    (enabled_silent <= (4.0 *. disabled) +. 0.001)

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "balanced and stack-nested" `Quick
            test_spans_balanced_and_nested;
          Alcotest.test_case "cover the Fig. 4 steps" `Quick
            test_spans_cover_fig4_steps;
          Alcotest.test_case "attributes" `Quick test_span_attrs;
        ] );
      ( "counters",
        [
          Alcotest.test_case "fig5 product" `Quick test_counters_fig5_product;
          Alcotest.test_case "evolution pipeline" `Quick
            test_counters_evolution_pipeline;
          Alcotest.test_case "minimize table cells" `Quick
            test_counters_minimize_table_cells;
          Alcotest.test_case "disabled stays zero" `Quick
            test_counters_disabled_stay_zero;
        ] );
      ( "golden",
        [
          Alcotest.test_case "silent sink changes no output" `Quick
            test_silent_sink_changes_no_output;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "near-zero when disabled" `Slow
            test_near_zero_overhead_when_disabled;
        ] );
    ]
