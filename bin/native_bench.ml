(* Contended throughput of the NATIVE (Atomic-backed) locks on real
   domains, measured by the same substrate-generic benchmark core (and
   the same lock registry) as the simulated LBench.

     dune exec bin/native_bench.exe -- [-d DOMAINS] [-c CLUSTERS]
                                       [-t MILLIS] [-l LOCK]... [--abortable]
                                       [--trace FILE] [--emit-bench-json FILE]

   Complements bench/main.exe's Bechamel section (uncontended cost) with
   a contended measurement reporting the full LBench metric set
   (throughput, fairness stddev, acquire p50/p99, migrations from the
   declared clusters). Caveat for interpreting numbers: when domains
   outnumber cores — certainly in this container — spin locks progress
   through pre-emption and Nat_mem's sleep escalation, so this measures
   lock overhead under oversubscription, not NUMA behaviour; use the
   simulator for the paper's experiments. Coherence misses per CS exist
   only in the simulator and are reported as "-" here. *)

open Cmdliner
module LI = Cohort.Lock_intf
module LR = Harness.Lock_registry
module Registry = Harness.Native.Registry
module Bench = Harness.Native.Bench
module Rep = Harness.Report

let header () =
  Printf.printf "  %-14s %12s %9s %10s %10s %9s %8s\n" "lock" "acquires/s"
    "fair.%" "p50 ns" "p99 ns" "migr." "abort%"

let row (r : Harness.Bench_core.result) =
  Printf.printf "  %-14s %12s %9s %10s %10s %9d %8s\n%!" r.lock_name
    (Rep.fmt_si r.throughput)
    (Rep.fmt_fixed1 r.fairness_stddev_pct)
    (Rep.fmt_si r.acquire_p50) (Rep.fmt_si r.acquire_p99) r.migrations
    (if r.aborts = 0 && r.abort_rate = 0. then "-"
     else Rep.fmt_fixed2 (100. *. r.abort_rate))

let run_bench domains clusters millis filters abortable patience seed trace
    emit =
  let tpc = (domains + clusters - 1) / clusters in
  let topology =
    Numa_base.Topology.make ~name:"native" ~clusters
      ~threads_per_cluster:(max 1 tpc) Numa_base.Latency.t5440
  in
  let cfg = { LI.default with LI.clusters; max_threads = domains } in
  let duration = millis * 1_000_000 in
  let wanted name =
    filters = [] || List.exists (fun f -> String.lowercase_ascii f = String.lowercase_ascii name) filters
  in
  let entries = List.filter (fun e -> wanted e.LR.name) Registry.all_locks in
  let aentries =
    if abortable then
      List.filter (fun e -> wanted e.LR.a_name) Registry.abortable_locks
    else []
  in
  if entries = [] && aentries = [] then begin
    Printf.eprintf "no lock matches the filter; known locks:\n  %s\n  %s\n"
      (String.concat ", " (List.map (fun e -> e.LR.name) Registry.all_locks))
      (String.concat ", "
         (List.map (fun e -> e.LR.a_name) Registry.abortable_locks));
    exit 2
  end;
  Printf.printf
    "native contended LBench: %d domains over %d clusters (round-robin), %d \
     ms window, seed %d\n\
     (1-core container: measures oversubscribed overhead, not NUMA)\n"
    domains clusters millis seed;
  header ();
  let sink, finish_trace = Harness.Experiments.trace_sink trace in
  let rollup = emit <> None in
  let results =
    List.map
      (fun (e : LR.entry) ->
        let e = LR.with_trace sink e in
        let r =
          Bench.run ~name:e.LR.name e.LR.lock ~topology ~cfg:(e.LR.tweak cfg)
            ~n_threads:domains ~duration ~seed ~rollup
        in
        row r;
        ("native-lbench", r))
      entries
    @ List.map
        (fun (e : LR.abortable_entry) ->
          let e = LR.with_trace_abortable sink e in
          let r =
            Bench.run_abortable ~name:e.LR.a_name e.LR.a_lock ~topology
              ~cfg:(e.LR.a_tweak cfg) ~n_threads:domains ~duration ~seed
              ~patience ~rollup
          in
          row r;
          ("native-lbench-abortable", r))
        aentries
  in
  finish_trace ();
  (match trace with
  | Some path -> Printf.printf "Wrote lock-event trace to %s\n%!" path
  | None -> ());
  match emit with
  | None -> ()
  | Some path ->
      let entries =
        List.map
          (fun (experiment, r) ->
            Harness.Bench_json.entry_of_result ~experiment r)
          results
      in
      Harness.Bench_json.(write path (make ~substrate:"native" ~seed entries));
      Printf.printf "Wrote bench artifact to %s\n%!" path

let domains =
  let doc = "Number of domains (threads) to contend on the lock." in
  Arg.(value & opt int 4 & info [ "d"; "domains" ] ~docv:"N" ~doc)

let clusters =
  let doc =
    "Number of NUMA clusters declared in the topology; domains are placed \
     round-robin across them."
  in
  Arg.(value & opt int 2 & info [ "c"; "clusters" ] ~docv:"N" ~doc)

let millis =
  let doc = "Measurement window in milliseconds (per lock)." in
  Arg.(value & opt int 100 & info [ "t"; "millis" ] ~docv:"MS" ~doc)

let locks =
  let doc =
    "Benchmark only this lock (repeatable, case-insensitive); default: the \
     whole registry line-up."
  in
  Arg.(value & opt_all string [] & info [ "l"; "lock" ] ~docv:"NAME" ~doc)

let abortable =
  let doc = "Also run the abortable line-up (with $(b,--patience))." in
  Arg.(value & flag & info [ "abortable" ] ~doc)

let patience =
  let doc = "Patience for abortable acquires, ns." in
  Arg.(value & opt int 1_000_000 & info [ "patience" ] ~docv:"NS" ~doc)

let seed =
  let doc = "Seed for the non-critical-section delay PRNG." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let trace =
  let doc =
    "Write a lock-event trace to $(docv): JSON-lines if it ends in .jsonl, \
     Chrome trace_event format otherwise."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let emit =
  let doc =
    "Write a versioned benchmark artifact (cohort-bench JSON, with per-lock \
     trace-metric rollups) to $(docv). Native artifacts are timing-dependent \
     and not byte-reproducible; use bench/main.exe for the gated sim \
     artifact."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "emit-bench-json" ] ~docv:"FILE" ~doc)

let cmd =
  let doc =
    "contended native lock throughput over the shared registry and benchmark \
     core"
  in
  Cmd.v
    (Cmd.info "native_bench" ~doc)
    Term.(
      const run_bench $ domains $ clusters $ millis $ locks $ abortable
      $ patience $ seed $ trace $ emit)

let () = exit (Cmd.eval cmd)
