(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation on the simulated T5440 — every entry of
   Harness.Experiments.entries at its quick or full parameters, in table
   order — plus Bechamel microbenchmarks of native (Atomic-based) lock
   primitive costs.

     dune exec bench/main.exe            # everything (~2 minutes)
     dune exec bench/main.exe -- quick   # reduced sweep (~20 s)

   Extra flags:
     --emit-bench-json FILE   versioned BENCH artifact from the keyed
                              entries (sim results only — deterministic,
                              byte-identical across same-seed runs)
     --trace FILE             lock-event trace of every run; .jsonl
                              streams JSONL, anything else writes a
                              Chrome trace_event file
     --profile                per-site coherence attribution report for
                              the microbenchmark sweep (stdout only;
                              never changes schedules or artifacts)
     --predict                the throughput oracle's predicted-vs-measured
                              table for the same sweep (stdout only)
     --fastpath on|off        engine fast path (schedule-invisible)

   The Bechamel section measures single-thread acquire+release latency of
   the native registry's paper and plain locks — the low-contention
   overhead that Figure 4 shows must stay competitive. *)

open Bechamel
module X = Harness.Experiments
module Nm = Numa_native.Nat_mem
module LI = Cohort.Lock_intf

(* --- Bechamel: native uncontended lock cost ----------------------------- *)

let native_cycle_test (e : Harness.Lock_registry.entry) =
  let (module L) = e.lock in
  let l = L.create (e.tweak { LI.default with LI.clusters = 4; max_threads = 8 }) in
  Nm.set_identity ~tid:0 ~cluster:0;
  let th = L.register l ~tid:0 ~cluster:0 in
  Test.make ~name:e.name
    (Staged.stage (fun () ->
         L.acquire th;
         L.release th))

let run_bechamel () =
  print_endline
    "=== Native uncontended acquire+release latency (Bechamel, ns/cycle) ===";
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  List.iter
    (fun e ->
      let results = Benchmark.all cfg [ instance ] (native_cycle_test e) in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols ->
          let est =
            match Analyze.OLS.estimates ols with
            | Some (e :: _) -> Printf.sprintf "%8.1f" e
            | _ -> "       ?"
          in
          Printf.printf "  %-24s %s ns\n%!" name est)
        analyzed)
    Harness.Native.Registry.(microbench_locks @ extra_locks);
  print_newline ()

(* --- Simulated figures and tables --------------------------------------- *)

(* Every entry of the experiment table that has bench parameters, in table
   order. [--profile]/[--predict] add stdout reports only: the sweeps and
   any emitted artifact are identical with and without them. *)
let run_sim ~quick ~trace ~emit ~profile ~predict =
  let base = if quick then X.quick else X.full in
  Printf.printf "%s\n\n%!" (X.params_summary base);
  let sink, finish_trace = X.trace_sink trace in
  let rollup = emit <> None || predict in
  let runs =
    List.filter_map
      (fun (e : X.entry) ->
        Option.map
          (fun (q, f) ->
            let p = if quick then q else f in
            let out = e.run { p with sink; rollup; profile; predict } in
            List.iter X.print_section out.sections;
            (e, out))
          e.bench)
      X.entries
  in
  finish_trace ();
  (match trace with
  | Some path -> Printf.printf "Wrote lock-event trace to %s\n%!" path
  | None -> ());
  match emit with
  | None -> ()
  | Some path ->
      Harness.Bench_json.write path (X.artifact ~seed:base.seed runs);
      Printf.printf "Wrote bench artifact to %s\n%!" path

let () =
  let rec parse (quick, trace, emit, profile, predict) = function
    | [] -> (quick, trace, emit, profile, predict)
    | "quick" :: rest -> parse (true, trace, emit, profile, predict) rest
    | "--trace" :: f :: rest ->
        parse (quick, Some f, emit, profile, predict) rest
    | "--emit-bench-json" :: f :: rest ->
        parse (quick, trace, Some f, profile, predict) rest
    | "--profile" :: rest -> parse (quick, trace, emit, true, predict) rest
    | "--predict" :: rest -> parse (quick, trace, emit, profile, true) rest
    (* The artifacts must be byte-identical either way (CI diffs them);
       the flag exists so that check is cheap to run. *)
    | "--fastpath" :: ("on" | "off" as v) :: rest ->
        Numasim.Engine.set_fastpath (v = "on");
        parse (quick, trace, emit, profile, predict) rest
    | a :: _ ->
        Printf.eprintf
          "unknown argument %S (expected: quick, --trace FILE, \
           --emit-bench-json FILE, --profile, --predict, --fastpath on|off)\n"
          a;
        exit 2
  in
  let quick, trace, emit, profile, predict =
    parse (false, None, None, false, false) (List.tl (Array.to_list Sys.argv))
  in
  run_bechamel ();
  run_sim ~quick ~trace ~emit ~profile ~predict
