(* Tests for the experiment harness: LBench metrics, sweep plumbing,
   table runners, report rendering. Runs are tiny (small topology / short
   windows) — these check correctness of the harness, not performance. *)

open Numa_base
module LI = Cohort.Lock_intf
module LB = Harness.Lbench
module X = Harness.Experiments
module R = Harness.Lock_registry
module Rep = Harness.Report

let topo = Topology.t5440
let cfg = { LI.default with LI.clusters = 4; max_threads = 256 }

let mcs = Option.get (R.find "MCS")
let cbomcs = Option.get (R.find "C-BO-MCS")

let test_lbench_counts_consistent () =
  let r =
    LB.run ~name:"MCS" mcs.R.lock ~topology:topo ~cfg ~n_threads:8
      ~duration:500_000 ~seed:1
  in
  Alcotest.(check int)
    "per-thread sums to total" r.LB.iterations
    (Array.fold_left ( + ) 0 r.LB.per_thread);
  Alcotest.(check int) "thread count" 8 (Array.length r.LB.per_thread);
  Alcotest.(check bool) "made progress" true (r.LB.iterations > 100);
  Alcotest.(check bool) "throughput positive" true (r.LB.throughput > 0.);
  Alcotest.(check bool)
    "throughput consistent" true
    (abs_float
       (r.LB.throughput
       -. (float_of_int r.LB.iterations /. (float_of_int r.LB.duration_ns *. 1e-9)))
    < 1.0);
  Alcotest.(check int) "no aborts on plain lock" 0 r.LB.aborts

let test_lbench_deterministic () =
  let go () =
    let r =
      LB.run ~name:"C-BO-MCS" cbomcs.R.lock ~topology:topo ~cfg ~n_threads:16
        ~duration:300_000 ~seed:7
    in
    (r.LB.iterations, r.LB.migrations, r.LB.per_thread)
  in
  Alcotest.(check bool) "identical reruns" true (go () = go ())

let test_lbench_seed_matters () =
  let go seed =
    (LB.run ~name:"MCS" mcs.R.lock ~topology:topo ~cfg ~n_threads:8
       ~duration:300_000 ~seed)
      .LB.iterations
  in
  Alcotest.(check bool) "different seeds differ" true (go 1 <> go 2)

let test_lbench_migrations_bounded () =
  let r =
    LB.run ~name:"C-BO-MCS" cbomcs.R.lock ~topology:topo ~cfg ~n_threads:32
      ~duration:500_000 ~seed:3
  in
  Alcotest.(check bool) "migrations < iterations" true
    (r.LB.migrations <= r.LB.iterations);
  Alcotest.(check bool) "some migrations" true (r.LB.migrations >= 1);
  (* A cohort lock under contention batches: migrations well below 50%. *)
  Alcotest.(check bool) "batching visible" true
    (r.LB.migrations * 4 < r.LB.iterations)

let test_lbench_single_thread_zero_misses () =
  let r =
    LB.run ~name:"MCS" mcs.R.lock ~topology:topo ~cfg ~n_threads:1
      ~duration:300_000 ~seed:5
  in
  Alcotest.(check (float 0.0001)) "no coherence misses alone" 0.
    r.LB.misses_per_cs;
  Alcotest.(check (float 0.0001)) "perfect fairness alone" 0.
    r.LB.fairness_stddev_pct

let test_lbench_abortable_runs () =
  let e = Option.get (R.find_abortable "A-C-BO-CLH") in
  let r =
    LB.run_abortable ~name:e.R.a_name e.R.a_lock ~topology:topo ~cfg
      ~n_threads:16 ~duration:500_000 ~seed:11 ~patience:2_000_000
  in
  Alcotest.(check bool) "progress" true (r.LB.iterations > 100);
  Alcotest.(check bool) "abort rate sane" true
    (r.LB.abort_rate >= 0. && r.LB.abort_rate < 0.5)

let test_lbench_tiny_patience_aborts () =
  let e = Option.get (R.find_abortable "A-HBO") in
  let r =
    LB.run_abortable ~name:e.R.a_name e.R.a_lock ~topology:topo ~cfg
      ~n_threads:32 ~duration:500_000 ~seed:13 ~patience:200
  in
  Alcotest.(check bool) "tiny patience causes aborts" true (r.LB.aborts > 0)

let test_lbench_latency_percentiles () =
  let r =
    LB.run ~name:"MCS" mcs.R.lock ~topology:topo ~cfg ~n_threads:16
      ~duration:500_000 ~seed:9
  in
  Alcotest.(check bool) "p50 positive under contention" true
    (r.LB.acquire_p50 > 0.);
  Alcotest.(check bool) "p99 >= p50" true (r.LB.acquire_p99 >= r.LB.acquire_p50);
  Alcotest.(check bool) "max >= p99 bucket lower bound" true
    (r.LB.acquire_max >= r.LB.acquire_p50)

(* --- sweeps ------------------------------------------------------------- *)

let small_locks = [ Option.get (R.find "MCS"); Option.get (R.find "C-BO-MCS") ]

let test_sweep_shape () =
  let s =
    X.microbench_sweep ~locks:small_locks ~topology:topo ~threads:[ 1; 8 ]
      ~duration:200_000 ~seed:1 ()
  in
  Alcotest.(check (list string)) "columns" [ "MCS"; "C-BO-MCS" ] s.X.columns;
  Alcotest.(check int) "cols" 2 (Array.length s.X.cells);
  Alcotest.(check int) "rows" 2 (Array.length s.X.cells.(0));
  let rows = X.throughput_rows s in
  Alcotest.(check int) "row count" 2 (List.length rows);
  List.iter
    (fun (_, vs) -> Array.iter (fun v -> assert (v > 0.)) vs)
    rows

let test_low_contention_filter () =
  let s =
    X.microbench_sweep ~locks:small_locks ~topology:topo
      ~threads:[ 1; 8; 64 ] ~duration:200_000 ~seed:1 ()
  in
  let s' = X.low_contention s in
  Alcotest.(check (list int)) "kept <=16" [ 1; 8 ] s'.X.threads;
  Alcotest.(check int) "cells trimmed" 2 (Array.length s'.X.cells.(0))

let test_table1_smoke () =
  let t =
    X.table1 ~locks:small_locks ~topology:topo ~threads:[ 1; 4 ]
      ~duration:300_000 ~seed:1 ~mix:Apps.Kv_workload.mixed ()
  in
  Alcotest.(check int) "rows" 2 (List.length t.X.t_rows);
  List.iter
    (fun (_, vs) ->
      Array.iter (fun v -> assert (v > 0.01 && v < 1000.)) vs)
    t.X.t_rows;
  (* more threads should not be slower than 1 thread for a sane lock *)
  let v1 = snd (List.nth t.X.t_rows 0) in
  let v4 = snd (List.nth t.X.t_rows 1) in
  Alcotest.(check bool) "scaling positive" true (v4.(0) > v1.(0))

let test_table2_smoke () =
  let t =
    X.table2 ~locks:small_locks ~topology:topo ~threads:[ 1; 8 ]
      ~duration:300_000 ~seed:1 ()
  in
  List.iter
    (fun (_, vs) -> Array.iter (fun v -> assert (v > 1.)) vs)
    t.X.t_rows;
  let v1 = snd (List.nth t.X.t_rows 0) in
  let v8 = snd (List.nth t.X.t_rows 1) in
  Alcotest.(check bool) "mmicro scales" true (v8.(1) > v1.(1))

(* Every table entry at tiny parameters on the small machine, plus the
   may-pass-local ablation at a size where its trend shows. *)
let test_table_entries () =
  let unique l = List.length (List.sort_uniq compare l) = List.length l in
  Alcotest.(check bool) "unique names" true
    (unique
       (List.concat_map
          (fun (e : X.entry) -> e.name :: List.map (fun (n, _, _) -> n) e.views)
          X.entries));
  Alcotest.(check bool) "unique artifact keys" true
    (unique (List.filter_map (fun (e : X.entry) -> e.key) X.entries));
  let handoff_trend (out : X.output) =
    let rows = match out.sections with X.Table t :: _ -> t.t_rows | _ -> [] in
    Alcotest.(check int) "7 bounds" 7 (List.length rows);
    (* Throughput with a generous bound beats always-global (bound 0). *)
    let tput_at i = (snd (List.nth rows i)).(0) in
    Alcotest.(check bool) "bound 64 beats bound 0" true (tput_at 4 > tput_at 0)
  in
  let tiny (e : X.entry) =
    ( e,
      {
        e.repro with
        topology = Topology.small;
        threads = [ 1; 4 ];
        n_threads = 4;
        duration = 100_000;
      },
      ignore )
  in
  let handoff =
    List.find (fun (e : X.entry) -> e.name = "ablation-handoff") X.entries
  in
  List.iter
    (fun ((e : X.entry), p, extra) ->
      let out = e.run p in
      let tables =
        List.filter_map
          (function X.Table t | X.Csv t -> Some t | X.Text _ -> None)
          out.sections
      in
      Alcotest.(check bool) (e.name ^ ": output") true (out.sections <> []);
      List.iter
        (fun (t : X.table) ->
          Alcotest.(check bool) (e.name ^ ": rows") true (t.t_rows <> []);
          List.iter
            (fun (_, cells) ->
              Alcotest.(check int) (e.name ^ ": row width")
                (List.length t.t_columns) (Array.length cells))
            t.t_rows)
        tables;
      Alcotest.(check bool) (e.name ^ ": artifact entries iff keyed")
        (e.key <> None) (out.results <> []);
      List.iter
        (fun (v, _, ids) ->
          Alcotest.(check bool) (v ^ ": view has a table") true
            (List.exists
               (function X.Table _ -> true | _ -> false)
               (X.view ids out).sections))
        e.views;
      extra out)
    (List.map tiny X.entries
    @ [
        ( handoff,
          { X.defaults with n_threads = 16; duration = 200_000; seed = 1 },
          handoff_trend );
      ])

let test_parsers () =
  let threads = Alcotest.(result (list int) string) in
  Alcotest.(check threads) "list" (Ok [ 1; 8; 64 ]) (X.parse_threads "1, 8,,64");
  List.iter
    (fun s ->
      Alcotest.(check bool) ("threads rejects " ^ s) true
        (Result.is_error (X.parse_threads s)))
    [ ","; ""; "0"; "-3"; "1,0"; "8,x" ];
  Alcotest.(check (result int string)) "count" (Ok 8) (X.parse_positive " 8");
  List.iter
    (fun s ->
      Alcotest.(check bool) ("count rejects " ^ s) true
        (Result.is_error (X.parse_positive s)))
    [ "0"; "-1"; ""; "eight" ]

(* --- registry ------------------------------------------------------------ *)

let test_registry_names_unique () =
  let names = List.map (fun (e : R.entry) -> e.R.name) R.all_locks in
  let sorted = List.sort_uniq compare names in
  Alcotest.(check int) "no duplicate names" (List.length names)
    (List.length sorted)

let test_registry_find () =
  Alcotest.(check bool) "find MCS" true (R.find "MCS" <> None);
  Alcotest.(check bool) "find C-MCS-MCS" true (R.find "C-MCS-MCS" <> None);
  Alcotest.(check bool) "missing" true (R.find "nope" = None);
  Alcotest.(check bool) "abortable" true (R.find_abortable "A-CLH" <> None)

let test_registry_expected_lineups () =
  (* 9 paper locks + the two successors (CNA, PTL). *)
  Alcotest.(check int) "fig2 has 11 locks" 11 (List.length R.microbench_locks);
  Alcotest.(check int) "fig6 has 4 locks" 4 (List.length R.abortable_locks);
  Alcotest.(check int) "tables have 13 locks" 13 (List.length R.app_locks)

(* --- report -------------------------------------------------------------- *)

let test_fmt_si () =
  Alcotest.(check string) "millions" "6.40M" (Rep.fmt_si 6_400_000.);
  Alcotest.(check string) "thousands" "497.0k" (Rep.fmt_si 497_000.);
  Alcotest.(check string) "small" "0.32" (Rep.fmt_si 0.32);
  Alcotest.(check string) "tens" "42" (Rep.fmt_si 42.1)

let test_csv_roundtrip () =
  let csv =
    Rep.csv_of_series ~x_label:"threads" ~columns:[ "A"; "B" ]
      ~rows:[ (1, [| 1.5; 2.5 |]); (2, [| 3.0; Float.nan |]) ]
  in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "3 lines" 3 (List.length lines);
  Alcotest.(check string) "header" "threads,A,B" (List.nth lines 0);
  Alcotest.(check string) "row 1" "1,1.5,2.5" (List.nth lines 1);
  Alcotest.(check string) "nan blank" "2,3," (List.nth lines 2)

(* --- check_lock ---------------------------------------------------------- *)

module CL = Harness.Check_lock
module CLS = CL.Make (Numasim.Sim_mem)

let test_check_lock_clean_usage () =
  let (module L) = CLS.wrap mcs.R.lock in
  let l = L.create cfg in
  let ok = ref 0 in
  ignore
    (Numasim.Engine.run ~topology:Numa_base.Topology.small ~n_threads:4
       (fun ~tid ~cluster ->
         let th = L.register l ~tid ~cluster in
         for _ = 1 to 25 do
           L.acquire th;
           Numasim.Sim_mem.pause 50;
           incr ok;
           L.release th;
           Numasim.Sim_mem.pause 80
         done));
  Alcotest.(check int) "clean usage passes" 100 !ok

let check_violation body =
  try
    ignore
      (Numasim.Engine.run ~topology:Numa_base.Topology.small ~n_threads:1
         (fun ~tid ~cluster -> body ~tid ~cluster));
    false
  with
  | CL.Protocol_violation _ -> true
  | Numasim.Engine.Thread_failure { exn = CL.Protocol_violation _; _ } -> true

let test_check_lock_double_release () =
  let (module L) = CLS.wrap mcs.R.lock in
  let l = L.create cfg in
  Alcotest.(check bool) "double release detected" true
    (check_violation (fun ~tid ~cluster ->
         let th = L.register l ~tid ~cluster in
         L.acquire th;
         L.release th;
         L.release th))

let test_check_lock_release_without_acquire () =
  let (module L) = CLS.wrap mcs.R.lock in
  let l = L.create cfg in
  Alcotest.(check bool) "bare release detected" true
    (check_violation (fun ~tid ~cluster ->
         let th = L.register l ~tid ~cluster in
         L.release th))

let test_check_lock_reentrant_acquire () =
  let (module L) = CLS.wrap mcs.R.lock in
  let l = L.create cfg in
  Alcotest.(check bool) "reentrancy detected" true
    (check_violation (fun ~tid ~cluster ->
         let th = L.register l ~tid ~cluster in
         L.acquire th;
         L.acquire th))

(* --- trace ---------------------------------------------------------------- *)

module Ev = Numa_trace.Event
module Metrics = Numa_trace.Metrics
module Sm = Numasim.Sim_mem

let ev at cluster kind = { Ev.at; tid = cluster; cluster; kind }

let test_trace_batches () =
  let m =
    Metrics.of_events
      [
        ev 0 0 Ev.Acquire_global; ev 1 0 Ev.Handoff_within_cohort;
        ev 2 0 Ev.Acquire_local; ev 3 0 Ev.Handoff_global;
        ev 4 1 Ev.Acquire_global; ev 5 1 Ev.Handoff_global;
        ev 6 0 Ev.Acquire_global; ev 7 0 Ev.Handoff_global;
      ]
  in
  Alcotest.(check int) "batches" 3 m.Metrics.batches;
  Alcotest.(check int) "longest batch" 2 m.Metrics.batch_max;
  Alcotest.(check int) "migrations" 2 m.Metrics.migrations;
  Alcotest.(check (float 0.01)) "mean batch" (4. /. 3.) m.Metrics.batch_mean

let test_trace_empty () =
  let m = Metrics.of_events [] in
  Alcotest.(check int) "no batches" 0 m.Metrics.batches;
  Alcotest.(check int) "no migrations" 0 m.Metrics.migrations;
  Alcotest.(check bool) "no mean" true (Float.is_nan m.Metrics.batch_mean)

(* A ring sink set through [cfg.trace] logs every acquisition and release
   of a run, in order. *)
let test_trace_ring_preserves_behaviour () =
  let (module L) = mcs.R.lock in
  let ring = Numa_trace.Ring.create ~capacity:4096 in
  let l = L.create { cfg with LI.trace = Numa_trace.Ring.sink ring } in
  let in_cs = ref 0 in
  let violations = ref 0 in
  ignore
    (Numasim.Engine.run ~topology:Numa_base.Topology.small ~n_threads:4
       (fun ~tid ~cluster ->
         let th = L.register l ~tid ~cluster in
         for _ = 1 to 25 do
           L.acquire th;
           incr in_cs;
           if !in_cs <> 1 then incr violations;
           Sm.pause 50;
           decr in_cs;
           L.release th;
           Sm.pause 100
         done));
  Alcotest.(check int) "traced lock still excludes" 0 !violations;
  let evs =
    List.filter
      (fun (e : Ev.t) -> Ev.is_acquire e.kind || Ev.is_release e.kind)
      (Numa_trace.Ring.events ring)
  in
  Alcotest.(check int) "all events logged" (4 * 25 * 2) (List.length evs);
  Alcotest.(check int) "acquires" (4 * 25)
    (Metrics.of_events evs).Metrics.acquires;
  (* Events must strictly alternate acquire/release (mutual exclusion). *)
  let rec alternates acquire = function
    | [] -> true
    | (e : Ev.t) :: rest ->
        (if acquire then Ev.is_acquire e.kind else Ev.is_release e.kind)
        && alternates (not acquire) rest
  in
  Alcotest.(check bool) "alternating" true (alternates true evs);
  (* Timestamps are non-decreasing. *)
  let rec sorted = function
    | (a : Ev.t) :: (b :: _ as rest) -> a.at <= b.at && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "chronological" true (sorted evs)

let suite =
  [
    ( "lbench",
      [
        Alcotest.test_case "counts consistent" `Quick
          test_lbench_counts_consistent;
        Alcotest.test_case "deterministic" `Quick test_lbench_deterministic;
        Alcotest.test_case "seed matters" `Quick test_lbench_seed_matters;
        Alcotest.test_case "migrations bounded" `Quick
          test_lbench_migrations_bounded;
        Alcotest.test_case "single thread clean" `Quick
          test_lbench_single_thread_zero_misses;
        Alcotest.test_case "abortable runs" `Quick test_lbench_abortable_runs;
        Alcotest.test_case "tiny patience aborts" `Quick
          test_lbench_tiny_patience_aborts;
        Alcotest.test_case "latency percentiles" `Quick
          test_lbench_latency_percentiles;
      ] );
    ( "experiments",
      [
        Alcotest.test_case "sweep shape" `Quick test_sweep_shape;
        Alcotest.test_case "low contention filter" `Quick
          test_low_contention_filter;
        Alcotest.test_case "table1 smoke" `Quick test_table1_smoke;
        Alcotest.test_case "table2 smoke" `Quick test_table2_smoke;
        Alcotest.test_case "table entries" `Quick test_table_entries;
        Alcotest.test_case "parsers" `Quick test_parsers;
      ] );
    ( "registry",
      [
        Alcotest.test_case "unique names" `Quick test_registry_names_unique;
        Alcotest.test_case "find" `Quick test_registry_find;
        Alcotest.test_case "lineups" `Quick test_registry_expected_lineups;
      ] );
    ( "check_lock",
      [
        Alcotest.test_case "clean usage" `Quick test_check_lock_clean_usage;
        Alcotest.test_case "double release" `Quick
          test_check_lock_double_release;
        Alcotest.test_case "bare release" `Quick
          test_check_lock_release_without_acquire;
        Alcotest.test_case "reentrant acquire" `Quick
          test_check_lock_reentrant_acquire;
      ] );
    ( "trace",
      [
        Alcotest.test_case "batches" `Quick test_trace_batches;
        Alcotest.test_case "empty" `Quick test_trace_empty;
        Alcotest.test_case "wrap preserves" `Quick
          test_trace_ring_preserves_behaviour;
      ] );
    ( "report",
      [
        Alcotest.test_case "fmt_si" `Quick test_fmt_si;
        Alcotest.test_case "csv" `Quick test_csv_roundtrip;
      ] );
  ]

let () = Alcotest.run "harness" suite
