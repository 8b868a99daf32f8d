open Numa_base
module M = Numasim.Sim_mem
module E = Numasim.Engine
module LI = Cohort.Lock_intf
module R = Lock_registry
module Kv = Apps.Kvstore.Make (Numasim.Sim_mem)
module W = Apps.Kv_workload
module Alloc = Apps.Allocator.Make (Numasim.Sim_mem)

type params = {
  topology : Topology.t;
  threads : int list;
  n_threads : int;
  duration : int;
  seed : int;
  patience : int;
  mixes : W.mix list;
  locks : string list;
  check : bool;
  sink : Numa_trace.Sink.t;
  rollup : bool;
  profile : bool;
  predict : bool;
}

type table = {
  t_id : string;
  t_title : string;
  t_xlabel : string;
  t_columns : string list;
  t_rows : (int * float array) list;
  t_fmt : float -> string;
}

type section = Table of table | Csv of table | Text of string

type output = {
  sections : section list;
  results : Lbench.result list;
  checks : (unit -> (string, string) result) list;
}

exception Usage_error of string

let params_summary p =
  Printf.sprintf "topology=%s duration=%dms seed=%d" p.topology.Topology.name
    (p.duration / 1_000_000) p.seed

let base_cfg topology =
  {
    LI.default with
    LI.clusters = topology.Topology.clusters;
    max_threads = Topology.total_threads topology;
  }

(* Locks size their per-thread state from [max_threads], so an
   oversubscribed sweep (logical threads beyond the machine's contexts)
   must widen it to the largest count in the sweep. For in-capacity
   sweeps the fold changes nothing, keeping historical configs — and
   hence golden results — bit-identical. *)
let cfg_for topology threads =
  {
    (base_cfg topology) with
    LI.max_threads =
      List.fold_left max (Topology.total_threads topology) threads;
  }

let cfg_for_n topology n = cfg_for topology [ n ]

(* Every experiment routes its lock instances to [p.sink]; tracing never
   changes a result (see [Numa_trace.Sink]). *)
let traced_cfg p n = { (cfg_for_n p.topology n) with LI.trace = p.sink }
let traced p = List.map (R.with_trace p.sink)

let table ?(fmt = Report.fmt_fixed2) id ~title ~x_label ~columns rows =
  {
    t_id = id;
    t_title = title;
    t_xlabel = x_label;
    t_columns = columns;
    t_rows = rows;
    t_fmt = fmt;
  }

(* Tables whose rows are labelled 0..n-1 spell the labels out in the
   title. *)
let numbered names =
  String.concat ", " (List.mapi (fun i n -> Printf.sprintf "%d=%s" i n) names)

let lock_names = List.map (fun (e : R.entry) -> e.name)

(* One row per thread count, one cell per lock. *)
let per_lock_rows locks threads f =
  List.map (fun n -> (n, Array.of_list (List.map (fun e -> f e n) locks))) threads

(* One LBench point at [p]'s machine, window and seed. *)
let lbench ?profile p cfg n (e : R.entry) =
  Lbench.run ~name:e.name ?profile e.lock ~topology:p.topology
    ~cfg:(e.tweak cfg) ~n_threads:n ~duration:p.duration ~seed:p.seed

(* --- LBench sweeps (Figures 2-6) ------------------------------------------ *)

type sweep = {
  threads : int list;
  columns : string list;
  cells : Lbench.result array array;
}

(* [run x n] for every column [x] and thread count [n]. *)
let sweep_of ~threads name run xs =
  {
    threads;
    columns = List.map name xs;
    cells =
      Array.of_list
        (List.map
           (fun x ->
             let run = run x in
             Array.of_list (List.map run threads))
           xs);
  }

let microbench_sweep ?(locks = R.microbench_locks) ?(rollup = false)
    ?(profile = false) ~topology ~threads ~duration ~seed () =
  let cfg = cfg_for topology threads in
  sweep_of ~threads
    (fun (e : R.entry) -> e.name)
    (fun e ->
      let cfg = e.tweak cfg in
      fun n ->
        Lbench.run ~name:e.name ~rollup ~profile e.lock ~topology ~cfg
          ~n_threads:n ~duration ~seed)
    locks

let rows_of sweep f =
  List.mapi
    (fun row n ->
      (n, Array.map (fun col -> f col.(row)) sweep.cells))
    sweep.threads

let throughput_rows s = rows_of s (fun r -> r.Lbench.throughput)

let low_contention s =
  let keep = List.filteri (fun i _ -> List.nth s.threads i <= 16) in
  {
    threads = List.filter (fun n -> n <= 16) s.threads;
    columns = s.columns;
    cells = Array.map (fun col -> Array.of_list (keep (Array.to_list col))) s.cells;
  }

(* LBench over [locks] at [p]'s thread counts, traced into [p.sink]. *)
let lbench_sweep ?profile p locks =
  microbench_sweep ~locks:(traced p locks) ~rollup:p.rollup ?profile
    ~topology:p.topology ~threads:p.threads ~duration:p.duration ~seed:p.seed ()

let series ?(fmt = Report.fmt_si) id title s f =
  table ~fmt id ~title ~x_label:"threads" ~columns:s.columns (rows_of s f)

let points s =
  List.concat
    (List.mapi
       (fun i name -> Array.to_list s.cells.(i) |> List.map (fun r -> (name, r)))
       s.columns)

let sweep_output ?(extra = []) s sections =
  { sections = sections @ extra; results = List.map snd (points s); checks = [] }

let find_locks ~who names =
  List.map
    (fun name ->
      match R.find name with
      | Some e -> e
      | None -> raise (Usage_error (Printf.sprintf "%s: unknown lock %S" who name)))
    names

(* Per-site coherence attribution of one run (stdout only: profiling
   mutates stats, never schedules). *)
let profile_text (name, (r : Lbench.result)) =
  match r.profile with
  | None -> Text ""
  | Some p ->
      let acquires = r.iterations in
      Text
        (Printf.sprintf
           "\n\
            -- %s @ %d threads: coherence attribution --\n\
            %sremote transfers / acquisition = %.3f   invalidations / release \
            = %.3f\n"
           name r.n_threads
           (Format.asprintf "%a" Numa_trace.Profile.pp p)
           (Numa_trace.Profile.remote_transfers_per_acquire p ~acquires)
           (Numa_trace.Profile.invalidations_per_release p ~releases:acquires))

let err_pct (r : Lbench.result) =
  match r.predicted with
  | Some p -> 100. *. p.Numa_trace.Predict.err
  | None -> Float.nan

(* Predicted vs measured throughput per point, worst |error| first;
   points without a prediction sort last. *)
let prediction_text s =
  let b = Buffer.create 4096 in
  let pr fmt = Printf.bprintf b fmt in
  let key r =
    let e = Float.abs (err_pct r) in
    if Float.is_nan e then Float.neg_infinity else e
  in
  pr "\npredicted vs measured throughput (LBench), worst first:\n";
  pr "  %-12s %4s  %11s  %11s  %7s  %9s ns  %8s ns\n" "lock" "thr" "measured"
    "predicted" "err" "service" "handoff";
  List.iter
    (fun (name, (r : Lbench.result)) ->
      match r.predicted with
      | None ->
          pr "  %-12s %4d  %11.3e  %11s  %7s\n" name r.n_threads r.throughput
            "-" "-"
      | Some p ->
          pr "  %-12s %4d  %11.3e  %11.3e  %+6.1f%%  %9.1f     %8.1f\n" name
            r.n_threads r.throughput p.Numa_trace.Predict.throughput
            (100. *. p.Numa_trace.Predict.err) p.Numa_trace.Predict.service_ns
            p.Numa_trace.Predict.handoff_ns)
    (List.stable_sort (fun (_, a) (_, b) -> Float.compare (key b) (key a)) (points s));
  Buffer.contents b

(* An LBench sweep shown as one throughput series. *)
let throughput_sweep id title locks p =
  let s = lbench_sweep p locks in
  sweep_output s [ Table (series id title s (fun r -> r.throughput)) ]

let figures p =
  let s = lbench_sweep ~profile:p.profile p R.microbench_locks in
  let fig2 =
    series "fig2" "Figure 2: LBench throughput (critical+non-critical pairs / s)"
      s (fun r -> r.throughput)
  and fig3 =
    series ~fmt:Report.fmt_fixed2 "fig3"
      "Figure 3: L2 coherence misses per critical section (lower is better)" s
      (fun r -> r.misses_per_cs)
  and fig5 =
    series ~fmt:Report.fmt_fixed1 "fig5"
      "Figure 5: fairness — stddev of per-thread throughput (% of mean, lower \
       is fairer)"
      s (fun r -> r.fairness_stddev_pct)
  in
  sweep_output s
    [
      Table fig2; Csv fig2; Table fig3; Csv fig3;
      Table
        (series "fig4"
           "Figure 4: LBench throughput at low contention (1-16 threads)"
           (low_contention s) (fun r -> r.throughput));
      Table fig5;
      Table
        (series "fig5-latency"
           "Figure 5 (companion): p99 acquire latency (ns) — the \
            per-acquisition face of unfairness"
           s (fun r -> r.acquire_p99));
      Csv fig5;
    ]
    ~extra:
      ((if p.profile then
          List.map2
            (fun name col -> profile_text (name, col.(Array.length col - 1)))
            s.columns (Array.to_list s.cells)
        else [])
      @ if p.predict then [ Text (prediction_text s) ] else [])

let figure6 p =
  let cfg = cfg_for p.topology p.threads in
  let locks = List.map (R.with_trace_abortable p.sink) R.abortable_locks in
  let s =
    sweep_of ~threads:p.threads
      (fun (e : R.abortable_entry) -> e.a_name)
      (fun e n ->
        Lbench.run_abortable ~name:e.a_name ~rollup:p.rollup e.a_lock
          ~topology:p.topology ~cfg:(e.a_tweak cfg) ~n_threads:n
          ~duration:p.duration ~seed:p.seed ~patience:p.patience)
      locks
  in
  let fig6 =
    series "fig6" "Figure 6: abortable lock throughput (pairs / s)" s (fun r ->
        r.throughput)
  in
  sweep_output s
    [
      Table fig6;
      Table
        (series ~fmt:Report.fmt_fixed2 "fig6-aborts"
           "Figure 6 (companion): abort rate (%)" s (fun r ->
             100. *. r.abort_rate));
      Csv fig6;
    ]

(* --- Table 1: memcached-style KV store -------------------------------- *)

(* One KV-store run; returns operations per second.

   Two pieces of workload modelling mirror the paper's setup (section 4.2):
   - the load is generated by a fixed 32-thread memaslap client, so no
     matter how many server threads run, at most ~32 requests are in
     flight — server threads beyond 32 add placement diversity but not
     offered load (which is why the paper's rows go flat above 32);
   - each request does parsing/response work outside the cache lock
     (~2-3 us) and hash/LRU/response-assembly work under it, with sets
     costing more than gets (allocation, chain maintenance) — the reason
     write-heavy mixes stress the lock hardest (Table 1c). *)
let memaslap_clients = 32
let client_rtt = 17_000 (* ns: network round trip + client processing *)
let kv_get_work = 300 (* ns: hash walk / response assembly under the lock *)
let kv_set_work = 550 (* ns: sets also allocate and fix up LRU chains *)

let kv_run ~make_workload (e : R.entry) ~topology ~n_threads ~duration ~seed =
  let module L = (val e.lock : LI.LOCK) in
  let cfg = e.tweak (cfg_for_n topology n_threads) in
  let l = L.create cfg in
  let store = Kv.create ~n_buckets:4096 () in
  Kv.populate store ~n_keys:16_384;
  let ops = ref 0 in
  (* Connection queue between client and server fibers: clients bump
     [issued]; servers claim tickets in FIFO order and bump [done] when a
     response is ready. These lines live outside the cache lock, like the
     kernel socket queues they stand in for. *)
  let issued = M.cell' ~name:"kv.issued" 0 in
  let claimed = M.cell' ~name:"kv.claimed" 0 in
  let done_ = M.cell' ~name:"kv.done" 0 in
  let total = n_threads + memaslap_clients in
  ignore
    (E.run ~topology ~n_threads:total ~horizon:duration
       (fun ~tid ~cluster ->
         if tid < n_threads then begin
           (* Server thread. *)
           let th = L.register l ~tid ~cluster in
           let w = make_workload ~tid in
           let rng = Prng.create (seed + tid) in
           let rec serve () =
             if M.now () < duration then begin
               let t = M.fetch_and_add claimed 1 in
               ignore (M.wait_until issued (fun i -> i > t));
               (* Request parsing outside the cache lock. *)
               M.pause (2_000 + Prng.int rng 900);
               L.acquire th;
               (match W.next w with
               | W.Get k ->
                   ignore (Kv.get store ~tid k);
                   M.pause kv_get_work
               | W.Set (k, v) ->
                   Kv.set store ~tid k v;
                   M.pause kv_set_work);
               incr ops;
               L.release th;
               ignore (M.fetch_and_add done_ 1);
               serve ()
             end
           in
           serve ()
         end
         else begin
           (* Client fiber: issue a request, wait for its (FIFO-ordered)
              completion, then spend a network round trip. *)
           let rng = Prng.create (seed + (tid * 31) + 1) in
           let rec client () =
             if M.now () < duration then begin
               let ticket = M.fetch_and_add issued 1 in
               ignore (M.wait_until done_ (fun d -> d > ticket));
               M.pause (client_rtt + Prng.int rng 2_000);
               client ()
             end
           in
           client ()
         end));
  float_of_int !ops /. (float_of_int duration *. 1e-9)

let kv_ops_per_sec (e : R.entry) ~topology ~n_threads ~duration ~seed ~mix =
  kv_run
    ~make_workload:(fun ~tid ->
      W.make ~seed:(seed + (tid * 131) + 7) ~n_keys:16_384 ~mix)
    e ~topology ~n_threads ~duration ~seed


let table1 ?(locks = R.app_locks) ~topology ~threads ~duration ~seed ~mix () =
  (* Normalisation baseline: pthread at one thread, same mix. *)
  let pthread =
    match R.find "pthread" with Some e -> e | None -> assert false
  in
  let base =
    kv_ops_per_sec pthread ~topology ~n_threads:1 ~duration ~seed ~mix
  in
  table
    (Printf.sprintf "table1_%.0fpct_sets" (mix.W.set_ratio *. 100.))
    ~title:
      (Printf.sprintf
         "Table 1: memcached-style KV store, %s (speedup over pthread @ 1 \
          thread)"
         mix.W.label)
    ~x_label:"threads" ~columns:(lock_names locks)
    (per_lock_rows locks threads (fun e n ->
         kv_ops_per_sec e ~topology ~n_threads:n ~duration ~seed ~mix /. base))

(* --- Table 2: allocator stress (mmicro) -------------------------------- *)

(* One mmicro run; returns malloc-free pairs per millisecond. Each thread
   repeatedly allocates a 64-byte block, initialises its first words, and
   frees it, with a ~2 us delay after each call (calibrated to the paper's
   ~200 pairs/ms single-thread rate). *)
let mmicro_pairs_per_ms (e : R.entry) ~topology ~n_threads ~duration ~seed =
  let module L = (val e.lock : LI.LOCK) in
  let cfg = e.tweak (cfg_for_n topology n_threads) in
  let l = L.create cfg in
  let alloc = Alloc.create () in
  let pairs = ref 0 in
  ignore
    (E.run ~topology ~n_threads (fun ~tid ~cluster ->
         let th = L.register l ~tid ~cluster in
         let rng = Prng.create (seed + (tid * 977) + 3) in
         let delay () = M.pause (1_700 + Prng.int rng 700) in
         let rec loop () =
           if M.now () < duration then begin
             L.acquire th;
             let b = Alloc.malloc alloc ~size:64 in
             L.release th;
             Alloc.write_data b tid;
             delay ();
             L.acquire th;
             Alloc.free alloc b;
             L.release th;
             incr pairs;
             delay ();
             loop ()
           end
         in
         loop ()));
  float_of_int !pairs /. (float_of_int duration /. 1e6)


let table2 ?(locks = R.app_locks) ~topology ~threads ~duration ~seed () =
  table "table2"
    ~title:"Table 2: libc-style allocator, mmicro (malloc-free pairs / ms)"
    ~x_label:"threads" ~columns:(lock_names locks)
    (per_lock_rows locks threads (fun e n ->
         mmicro_pairs_per_ms e ~topology ~n_threads:n ~duration ~seed))

(* --- Ablations ---------------------------------------------------------- *)

let ablation_handoff_bound p =
  let bounds = [ 0; 1; 4; 16; 64; 256; 100_000 ] in
  let cfg = traced_cfg p p.n_threads in
  let locks = [ "C-BO-MCS"; "C-TKT-MCS" ] in
  let rows =
    List.map
      (fun bound ->
        let vals =
          List.concat_map
            (fun name ->
              let r =
                lbench p
                  { cfg with LI.max_local_handoffs = bound }
                  p.n_threads
                  (Option.get (R.find name))
              in
              [ r.Lbench.throughput /. 1e6; r.Lbench.fairness_stddev_pct ])
            locks
        in
        (bound, Array.of_list vals))
      bounds
  in
  table "ablation-handoff"
    ~title:
      (Printf.sprintf
         "Ablation: may-pass-local bound at %d threads (throughput Mops/s and \
          fairness stddev%%)"
         p.n_threads)
    ~x_label:"bound"
    ~columns:(List.concat_map (fun n -> [ n ^ " tput"; n ^ " unfair%" ]) locks)
    rows

let ablation_hbo_tuning p =
  let presets =
    [ ("HBO micro-tuned", R.hbo_micro); ("HBO app-tuned", R.hbo_app) ]
  in
  let hbo = Option.get (R.find "HBO") in
  let rows =
    List.map
      (fun n ->
        let vals =
          List.concat_map
            (fun (_, tweak) ->
              let hbo = R.with_trace p.sink { hbo with R.tweak = tweak } in
              let lb = lbench p (cfg_for_n p.topology n) n hbo in
              let kv =
                kv_ops_per_sec hbo ~topology:p.topology ~n_threads:n
                  ~duration:p.duration ~seed:p.seed ~mix:W.write_heavy
              in
              [ lb.Lbench.throughput /. 1e6; kv /. 1e6 ])
            presets
        in
        (n, Array.of_list vals))
      [ 32; 128 ]
  in
  table "ablation-hbo"
    ~title:
      "Ablation: HBO backoff-parameter instability (Mops/s; columns: preset x \
       workload)"
    ~x_label:"threads"
    ~columns:
      (List.concat_map
         (fun (name, _) -> [ name ^ " | LBench"; name ^ " | KV wr-heavy" ])
         presets)
    rows

let ablation_policy p =
  (* The paper's counted policy (bound 64) vs the time-budget policy its
     section 2.1 suggests, on a fair-global cohort lock so fairness
     reflects the policy rather than global-lock arbitration. *)
  let cfg = traced_cfg p p.n_threads in
  let e = Option.get (R.find "C-TKT-MCS") in
  let policies =
    [
      ("counted 64", { cfg with LI.handoff_policy = LI.Counted });
      ( "counted 16",
        { cfg with LI.handoff_policy = LI.Counted; max_local_handoffs = 16 } );
      ("timed 5us", { cfg with LI.handoff_policy = LI.Timed 5_000 });
      ("timed 50us", { cfg with LI.handoff_policy = LI.Timed 50_000 });
      ( "count|time 10us",
        { cfg with LI.handoff_policy = LI.Counted_or_timed 10_000 } );
      ("unbounded", { cfg with LI.handoff_policy = LI.Unbounded });
    ]
  in
  let rows =
    List.mapi
      (fun i (_, cfg) ->
        let r = lbench p cfg p.n_threads e in
        ( i,
          [|
            r.Lbench.throughput /. 1e6;
            r.Lbench.fairness_stddev_pct;
            float_of_int r.Lbench.migrations;
          |] ))
      policies
  in
  table "ablation-policy"
    ~title:
      (Printf.sprintf
         "Ablation: may-pass-local policy on C-TKT-MCS at %d threads (rows: %s)"
         p.n_threads
         (numbered (List.map fst policies)))
    ~x_label:"policy#"
    ~columns:[ "Mops/s"; "unfair%"; "migrations" ]
    rows

(* --- Extension: blocking cohort lock ------------------------------------ *)

let extension_blocking p =
  let locks =
    [
      Option.get (R.find "pthread");
      R.plain "BLK" (module R.Blk.Plain : LI.LOCK);
      R.plain "C-BLK-BLK" (module R.C_blk_blk : LI.LOCK);
      Option.get (R.find "C-BO-MCS");
    ]
  in
  let t =
    table1 ~locks:(traced p locks) ~topology:p.topology ~threads:p.threads
      ~duration:p.duration ~seed:p.seed ~mix:W.write_heavy ()
  in
  {
    t with
    t_id = "ext-blocking";
    t_title =
      "Extension: blocking cohort lock (C-BLK-BLK) on the write-heavy KV \
       workload (speedup over pthread @ 1 thread)";
  }

(* --- Extension: NUMA-aware reader-writer lock --------------------------- *)

module Rw = Cohort.Cohort_locks.C_rw_bo_mcs (Numasim.Sim_mem)
module RwMutex = Cohort.Cohort_locks.C_bo_mcs (Numasim.Sim_mem)

(* Threads share a structure under either a plain cohort mutex (writers
   and readers both take it) or the RW cohort lock; returns Mops/s. *)
let rw_run ~use_rw p ~write_ratio =
  let cfg = traced_cfg p p.n_threads in
  let ops = ref 0 in
  let shared = M.cell' 0 in
  (* [lock ~tid ~cluster write] takes the lock for a write (or a read)
     and returns the matching unlock. *)
  let lock =
    if use_rw then
      let l = Rw.create cfg in
      fun ~tid ~cluster ->
        let th = Rw.register l ~tid ~cluster in
        fun write ->
          if write then (
            Rw.write_lock th;
            fun () -> Rw.write_unlock th)
          else (
            Rw.read_lock th;
            fun () -> Rw.read_unlock th)
    else
      let l = RwMutex.create cfg in
      fun ~tid ~cluster ->
        let th = RwMutex.register l ~tid ~cluster in
        fun _ ->
          RwMutex.acquire th;
          fun () -> RwMutex.release th
  in
  ignore
    (E.run ~topology:p.topology ~n_threads:p.n_threads (fun ~tid ~cluster ->
         let lock = lock ~tid ~cluster in
         let rng = Prng.create (p.seed + tid) in
         let rec loop () =
           if M.now () < p.duration then begin
             let write = Prng.chance rng write_ratio in
             let unlock = lock write in
             if write then M.write shared (M.read shared + 1)
             else ignore (M.read shared);
             M.pause 150;
             unlock ();
             incr ops;
             M.pause (500 + Prng.int rng 500);
             loop ()
           end
         in
         loop ()));
  float_of_int !ops /. (float_of_int p.duration *. 1e-9)

let extension_rw p =
  let ratios = [ 0.01; 0.1; 0.5; 0.9 ] in
  let rows =
    List.map
      (fun ratio ->
        let mutex = rw_run ~use_rw:false p ~write_ratio:ratio in
        let rw = rw_run ~use_rw:true p ~write_ratio:ratio in
        ( int_of_float (ratio *. 100.),
          [| mutex /. 1e6; rw /. 1e6; rw /. mutex |] ))
      ratios
  in
  table "ext-rw"
    ~title:
      (Printf.sprintf
         "Extension: NUMA-aware reader-writer lock (C-RW-WP) vs cohort mutex \
          at %d threads"
         p.n_threads)
    ~x_label:"write%"
    ~columns:[ "mutex Mops/s"; "C-RW-WP Mops/s"; "speedup" ]
    rows

(* --- Cohort gain across machines ----------------------------------------- *)

(* MCS against C-BO-MCS on each machine, at [p.n_threads] capped to the
   machine's contexts. *)
let cohort_gain id ~title machines p =
  let mcs = Option.get (R.find "MCS") in
  let cbm = Option.get (R.find "C-BO-MCS") in
  let rows =
    List.mapi
      (fun i (_, topology) ->
        let n = min p.n_threads (Topology.total_threads topology) in
        let cfg = { (base_cfg topology) with LI.trace = p.sink } in
        let run e = (lbench { p with topology } cfg n e).throughput /. 1e6 in
        let m = run mcs and c = run cbm in
        (i, [| m; c; c /. m |]))
      machines
  in
  table id
    ~title:
      (Printf.sprintf "%s at %d threads (rows: %s)" title p.n_threads
         (numbered (List.map fst machines)))
    ~x_label:"machine#"
    ~columns:[ "MCS Mops/s"; "C-BO-MCS Mops/s"; "cohort gain" ]
    rows

(* The cohort advantage should grow with the machine's NUMA factor and
   vanish on a UMA machine (negative control). *)
let topology_sensitivity =
  cohort_gain "topology" ~title:"Topology sensitivity"
    [
      ( "uma",
        Topology.make ~name:"uma" ~clusters:4 ~threads_per_cluster:64
          Latency.uniform );
      ( "2-socket",
        Topology.make ~name:"2s" ~clusters:2 ~threads_per_cluster:32
          Latency.two_socket_x86 );
      ("t5440", Topology.t5440);
      ( "8-socket",
        Topology.make ~name:"8s" ~clusters:8 ~threads_per_cluster:32
          Latency.t5440 );
    ]

(* Same shape (4 clusters x 64), different cost structure: t5440 pays one
   flat tier for every cross-cluster transfer, the rack preset pays a
   cheap socket tier or an expensive rack tier depending on how far the
   lock migrates. Cohorting should widen its lead when migration can
   cross a rack. *)
let hierarchy_comparison =
  cohort_gain "hier"
    ~title:
      "Extension: hierarchical machine (flat t5440 vs 2-rack x 2-socket)"
    [ ("t5440", Topology.t5440); ("rack", Topology.rack) ]

(* --- Extension: bi-modal workload ----------------------------------------- *)

(* The paper motivates write-heavy testing with servers that "exhibit
   bi-modal behavior, alternating between write-heavy and read-heavy
   phases" (section 4.2). Cohort locks need no retuning across phases;
   HBO's fixed backoff parameters cannot suit both. *)
let extension_bimodal p =
  let locks =
    List.filter
      (fun (e : R.entry) ->
        List.mem e.R.name [ "pthread"; "MCS"; "HBO"; "C-BO-MCS"; "C-TKT-MCS" ])
      R.app_locks
  in
  let run e =
    kv_run
      ~make_workload:(fun ~tid ->
        W.make_bimodal ~seed:(p.seed + (tid * 131) + 7) ~n_keys:16_384
          ~period:500 ~mix_a:W.read_heavy ~mix_b:W.write_heavy)
      (R.with_trace p.sink e) ~topology:p.topology ~n_threads:p.n_threads
      ~duration:p.duration ~seed:p.seed
  in
  let base = run (Option.get (R.find "pthread")) in
  table "ext-bimodal"
    ~title:
      (Printf.sprintf
         "Extension: bi-modal workload (alternating read-/write-heavy phases) \
          at %d threads (speedup over pthread)"
         p.n_threads)
    ~x_label:"threads" ~columns:(lock_names locks)
    (per_lock_rows locks [ p.n_threads ] (fun e _ -> run e /. base))

(* --- Successor comparison ------------------------------------------------- *)

(* The repo's first paper-vs-successor table: the 2012 cohort flagship
   against two later designs — CNA (Dice & Kogan, arXiv 1810.05600),
   which gets NUMA-aware handoff out of a single MCS-compatible lock
   word, and the partition ticket lock, which buys waiter-local spinning
   with a per-thread slot array. Throughput plus the two profiler
   metrics the competing claims rest on: remote transfers per
   acquisition (NUMA locality) and distinct lock-metadata cache lines
   touched (memory footprint — CNA's headline advantage, PTL's headline
   cost). *)
let successor_comparison p =
  let names = [ "MCS"; "C-BO-MCS"; "CNA"; "PTL" ] in
  let cfg = traced_cfg p p.n_threads in
  let rows =
    List.mapi
      (fun i name ->
        let r = lbench ~profile:true p cfg p.n_threads (Option.get (R.find name)) in
        let prof = Option.get r.Lbench.profile in
        ( i,
          [|
            r.Lbench.throughput /. 1e6;
            Numa_trace.Profile.remote_transfers_per_acquire prof
              ~acquires:r.Lbench.iterations;
            float_of_int (Numa_trace.Profile.lock_lines prof);
          |] ))
      names
  in
  table "successors"
    ~title:
      (Printf.sprintf
         "Successors: cohort flagship vs CNA and partition ticket at %d \
          threads (rows: %s)"
         p.n_threads (numbered names))
    ~x_label:"lock#"
    ~columns:[ "Mops/s"; "xfers/acq"; "lock lines" ]
    rows

(* --- Extension: saturation collapse (GCR concurrency restriction) -------- *)

(* The sweeps above stop at the machine's contexts; this experiment goes
   past them, to thousands of logical threads, where spin locks hit
   scalability collapse (Dice & Kogan, arXiv 1905.10818). The simulator
   has no timeslicing — oversubscribed fibers run concurrently in sim
   time — so the scheduler is modelled explicitly in the workload:
   whenever a thread's quantum has expired at a checkpoint it is
   descheduled for a full round of its context's share of the
   oversubscription ([(oversub - 1) * quantum]).

   Two charges per iteration:
   - {e CPU sharing}, before joining the lock competition: when a
     thread's quantum has expired it pauses for the rest of the round —
     every oversubscribed thread pays this, in parallel, so it scales
     offered load down by the oversubscription factor without
     serializing anyone;
   - {e waiter preemption}, right after acquiring: a thread whose
     acquire took longer than a quantum {e while spinning} necessarily
     lost the CPU mid-wait, so the handoff landed on a descheduled
     thread and the critical section cannot start until its next slot —
     charged as a full round {e while holding the lock}. Under
     saturation every FIFO-lock handoff hits this, so throughput
     collapses to about one critical section per round.

   The parked/runnable distinction is what GCR sells: a parked thread
   yielded its CPU voluntarily, so it stops competing for quanta, and
   both charges are computed over the {e currently runnable} thread
   count — once enough threads park, the run queue fits the machine and
   the round shrinks to zero. The workload learns the parked population
   from the lock's own [Gcr_park]/[Gcr_unpark] trace events (a private
   sink teed into the config; plain locks emit neither, so all their
   threads stay runnable and the full round applies). A woken thread is
   never charged for its park-side wait (the lock already charges
   [resume_cost]) and gets a fresh quantum, as a real dispatch would
   grant. Without the runnable-count feedback the model convoys: the
   k warm actives queue behind each other, each wait then exceeds the
   quantum, each holder is charged a round while holding, which is what
   made the waits long — a bootstrapped collapse that a real scheduler
   with an empty run queue does not produce. *)

let collapse_quantum = 10_000 (* ns *)
let collapse_cs = 150 (* ns inside the critical section *)
let collapse_noncs = 200 (* ns between sections, + up to 300 random *)

let collapse_run (e : R.entry) ~topology ~n_threads ~duration ~seed =
  let module L = (val e.lock : LI.LOCK) in
  let cfg = e.tweak (cfg_for_n topology n_threads) in
  (* Park observation channel: [woke.(tid)] means tid's current acquire
     slept on the GCR passive list (so its long wait was off-CPU), and
     [parked_now] is the current passive population — what the model
     subtracts from the run queue. *)
  let woke = Array.make n_threads false in
  let parked_now = ref 0 in
  let park_sink =
    Numa_trace.Sink.make (fun ev ->
        match ev.Numa_trace.Event.kind with
        | Numa_trace.Event.Gcr_park -> incr parked_now
        | Numa_trace.Event.Gcr_unpark ->
            woke.(ev.tid) <- true;
            decr parked_now
        | _ -> ())
  in
  let cfg = { cfg with LI.trace = Numa_trace.Sink.tee park_sink cfg.LI.trace } in
  (* Trace-ring rollup, as in Bench_core: hold/batch quantiles for the
     collapse trajectory. No latency histogram here, so the wait
     quantiles stay unset (null in the artifact). *)
  let ring = Numa_trace.Ring.create ~capacity:65_536 in
  let cfg =
    { cfg with LI.trace = Numa_trace.Sink.tee (Numa_trace.Ring.sink ring) cfg.LI.trace }
  in
  let l = L.create cfg in
  let contexts = Topology.total_threads topology in
  let oversub = (n_threads + contexts - 1) / contexts in
  let round () =
    let runnable = n_threads - !parked_now in
    let ov = (runnable + contexts - 1) / contexts in
    (ov - 1) * collapse_quantum
  in
  let per_thread = Array.make n_threads 0 in
  let migrations = ref 0 in
  let last_cluster = ref (-1) in
  ignore
    (E.run ~topology ~n_threads (fun ~tid ~cluster ->
         let th = L.register l ~tid ~cluster in
         let rng = Prng.create (seed + (tid * 7919) + 11) in
         (* Quanta staggered so the first round of deschedules is not one
            synchronized convoy. *)
         let next = ref (Prng.int rng collapse_quantum) in
         let preempt () =
           if oversub > 1 && M.now () >= !next then begin
             let r = round () in
             if r > 0 then M.pause r;
             next := M.now () + collapse_quantum
           end
         in
         let rec loop () =
           if M.now () < duration then begin
             preempt ();
             let t0 = M.now () in
             L.acquire th;
             let parked = woke.(tid) in
             woke.(tid) <- false;
             if parked then
               (* Just dispatched from a wakeup: fresh quantum. *)
               next := M.now () + collapse_quantum
             else if oversub > 1 && M.now () - t0 > collapse_quantum then begin
               (* Waiter preemption: the spin outlived the quantum, so
                  ownership arrived while this thread was descheduled —
                  charged while holding, for a round over the runnable
                  population. *)
               let r = round () in
               if r > 0 then M.pause r;
               next := M.now () + collapse_quantum
             end;
             (* Only work inside the measurement window counts; the
                post-window queue drain must still run (blocked acquires
                have to complete) but not inflate the collapsed locks. *)
             if M.now () < duration then begin
               per_thread.(tid) <- per_thread.(tid) + 1;
               if !last_cluster <> cluster then begin
                 if !last_cluster >= 0 then incr migrations;
                 last_cluster := cluster
               end
             end;
             M.pause collapse_cs;
             L.release th;
             M.pause (collapse_noncs + Prng.int rng 300);
             loop ()
           end
         in
         loop ()));
  let iterations = Array.fold_left ( + ) 0 per_thread in
  let dur_s = float_of_int duration *. 1e-9 in
  let mean = float_of_int iterations /. float_of_int n_threads in
  let fairness_stddev_pct =
    if iterations = 0 then Float.nan
    else
      let var =
        Array.fold_left
          (fun acc c ->
            let d = float_of_int c -. mean in
            acc +. (d *. d))
          0. per_thread
        /. float_of_int n_threads
      in
      100. *. sqrt var /. mean
  in
  {
    Lbench.lock_name = e.name;
    n_threads;
    duration_ns = duration;
    iterations;
    throughput = float_of_int iterations /. dur_s;
    per_thread;
    fairness_stddev_pct;
    migrations = !migrations;
    misses_per_cs = Float.nan;
    aborts = 0;
    abort_rate = 0.;
    acquire_p50 = Float.nan;
    acquire_p99 = Float.nan;
    acquire_max = Float.nan;
    rollup = Some (Numa_trace.Metrics.of_events (Numa_trace.Ring.events ring));
    profile = None;
    (* The analytic model is calibrated to the LBench loop; the collapse
       workload (preemption, different CS/idle constants) is out of its
       stated scope. *)
    predicted = None;
  }


let collapse p =
  let lineup = List.map (fun (e : R.entry) -> e.name) R.collapse_locks in
  let locks =
    List.map
      (fun name ->
        match List.find_opt (fun (e : R.entry) -> e.name = name) R.collapse_locks with
        | Some e -> e
        | None ->
            raise
              (Usage_error
                 (Printf.sprintf
                    "repro collapse: unknown lock %s (collapse line-up: %s)"
                    name (String.concat " " lineup))))
      (if p.locks = [] then lineup else p.locks)
  in
  let s =
    sweep_of ~threads:p.threads
      (fun (e : R.entry) -> e.name)
      (fun e n ->
        collapse_run (R.with_trace p.sink e) ~topology:p.topology ~n_threads:n
          ~duration:p.duration ~seed:p.seed)
      locks
  in
  let t =
    series "collapse"
      (Printf.sprintf
         "Collapse: throughput under oversubscription on %s (%d contexts; \
          pairs / s)"
         p.topology.Topology.name
         (Topology.total_threads p.topology))
      s (fun r -> r.throughput)
  in
  sweep_output s [ Table t; Csv t ]

(* --- The composition matrix ---------------------------------------------- *)

let composition_matrix p =
  let cfg = traced_cfg p p.n_threads in
  let axis = R.composition_axis in
  let k = List.length axis in
  let tput =
    Array.of_list
      (List.map
         (fun e -> (lbench p cfg p.n_threads e).throughput /. 1e6)
         R.compositions)
  in
  table "matrix"
    ~title:
      (Printf.sprintf
         "Composition matrix at %d threads (Mops/s; rows = global lock %s, \
          columns = local lock)"
         p.n_threads (String.concat "/" axis))
    ~x_label:"global#" ~columns:axis
    (List.mapi (fun gi _ -> (gi, Array.sub tput (gi * k) k)) axis)

(* --- Observability: attribution profile and throughput oracle ------------ *)

(* The paper-claim gate (scripts/ci.sh): C-BO-MCS must move the lock data
   across clusters less often than plain MCS — section 4's explanation
   of the cohort advantage, measured directly by the attribution
   profiler instead of inferred from throughput. The successor claim
   rides along: CNA gets its cohort-style batching out of a single lock
   word plus the waiter nodes, so its lock-metadata footprint (distinct
   cache lines) must be strictly below C-BO-MCS's global-lock +
   per-cluster-locks + counters layering. *)
let profile p =
  let locks = find_locks ~who:"profile" p.locks in
  let s = lbench_sweep ~profile:true { p with threads = [ p.n_threads ] } locks in
  let results = points s in
  let per_acq (r : Lbench.result) =
    match r.profile with
    | Some pr ->
        Numa_trace.Profile.remote_transfers_per_acquire pr ~acquires:r.iterations
    | None -> Float.nan
  in
  let lines (r : Lbench.result) =
    match r.profile with Some pr -> Numa_trace.Profile.lock_lines pr | None -> 0
  in
  let summary =
    Printf.sprintf
      "\nremote transfers per acquisition / lock-metadata lines @ %d threads:\n"
      p.n_threads
    :: List.map
         (fun (name, r) ->
           Printf.sprintf "  %-12s %8.3f %6d lines\n" name (per_acq r) (lines r))
         results
  in
  let get name =
    match List.assoc_opt name results with
    | Some r -> r
    | None ->
        raise
          (Usage_error
             (Printf.sprintf
                "profile --check: lock %S not in the run (need MCS, C-BO-MCS \
                 and CNA)"
                name))
  in
  {
    sections = List.map profile_text results @ [ Text (String.concat "" summary) ];
    results = [];
    checks =
      (if p.check then
         [
           (fun () ->
             Gates.transfers_claim ~mcs_per_acq:(per_acq (get "MCS"))
               ~cohort_per_acq:(per_acq (get "C-BO-MCS")));
           (fun () ->
             Gates.lines_claim ~cna_lines:(lines (get "CNA"))
               ~cohort_lines:(lines (get "C-BO-MCS")));
         ]
       else []);
  }

(* The throughput oracle (doc/SIMULATOR.md "Model validation"); under
   [p.check] the median absolute error on the core curves is gated
   through [Gates]. *)
let predict p =
  let locks = find_locks ~who:"predict" p.locks in
  let s = lbench_sweep { p with rollup = true } locks in
  let err_at lock n =
    match
      List.find_opt
        (fun (name, (r : Lbench.result)) -> name = lock && r.n_threads = n)
        (points s)
    with
    | Some (_, r) -> err_pct r
    | None ->
        raise
          (Usage_error
             (Printf.sprintf
                "predict --check: core point %s @ %d threads not in the run \
                 (need %s at threads %s)"
                lock n
                (String.concat ", " Gates.pred_core_locks)
                (String.concat "," (List.map string_of_int Gates.pred_core_threads))))
  in
  let check () =
    Gates.prediction_claim
      ~err_pcts:
        (List.concat_map
           (fun lock -> List.map (err_at lock) Gates.pred_core_threads)
           Gates.pred_core_locks)
  in
  {
    sections = [ Text (prediction_text s) ];
    results = [];
    checks = (if p.check then [ check ] else []);
  }

(* --- The experiment table ------------------------------------------------- *)

type flag =
  | Topology
  | Threads
  | N_threads of string
  | Duration of string
  | Seed
  | Patience
  | Mix
  | Locks of string
  | Check of string
  | Csv_dir
  | Trace
  | Emit
  | Profile

type entry = {
  name : string;
  doc : string;
  key : string option;
  flags : flag list;
  views : (string * string * string list) list;
  repro : params;
  in_all : bool;
  bench : (params * params) option;
  run : params -> output;
}

let paper_threads = [ 1; 2; 4; 8; 16; 32; 64; 128; 192; 256 ]
let app_threads = [ 1; 4; 8; 16; 32; 64; 96; 128 ]
let alloc_threads = [ 1; 2; 4; 8; 16; 32; 64; 128; 255 ]

let defaults =
  {
    topology = Topology.t5440;
    threads = paper_threads;
    n_threads = 64;
    duration = 10_000_000;
    seed = 42;
    patience = 2_000_000;
    mixes = [ W.read_heavy; W.mixed; W.write_heavy ];
    locks = [];
    check = false;
    sink = Numa_trace.Sink.noop;
    rollup = false;
    profile = false;
    predict = false;
  }

let quick = { defaults with threads = [ 1; 8; 64; 256 ]; duration = 2_000_000 }
let full = { defaults with duration = 5_000_000 }

let entry ?key ?(flags = []) ?(views = []) ?(repro = defaults) ?(all = true)
    ?bench name doc run =
  { name; doc; key; flags; views; repro; in_all = all && flags <> []; bench; run }

let window =
  Duration "Simulated measurement window per data point, in milliseconds."

let contending = N_threads "Contending threads."
let sweep_flags = [ Topology; Threads; window; Seed ]
let point_flags = [ Topology; contending; window; Seed ]
let sections ss = { sections = ss; results = []; checks = [] }
let one f p = sections [ Table (f p) ]
let successor_lineup = [ "MCS"; "C-BO-MCS"; "CNA"; "PTL" ]

(* In bench/main.exe order; [all] runs the [in_all] subset in this order. *)
let entries =
  [
    entry "figs" "Figures 2-5 from one sweep." figures ~key:"lbench"
      ~flags:(sweep_flags @ [ Csv_dir; Trace; Emit; Profile ])
      ~views:
        [
          ("fig2", "LBench throughput (Figure 2).", [ "fig2" ]);
          ("fig3", "L2 coherence misses per CS (Figure 3).", [ "fig3" ]);
          ("fig4", "Low-contention throughput (Figure 4).", [ "fig4" ]);
          ("fig5", "Fairness (Figure 5).", [ "fig5"; "fig5-latency" ]);
        ]
      ~bench:(quick, full);
    entry "fig6" "Abortable lock throughput (Figure 6)." figure6
      ~key:"lbench-abortable"
      ~flags:(sweep_flags @ [ Patience; Csv_dir; Trace; Emit ])
      ~bench:(quick, full);
    entry "table1" "memcached-style KV store speedups (Table 1)."
      (fun p ->
        sections
          (List.concat_map
             (fun mix ->
               let t =
                 table1 ~locks:(traced p R.app_locks) ~topology:p.topology
                   ~threads:p.threads ~duration:p.duration ~seed:p.seed ~mix ()
               in
               [ Table t; Csv t ])
             p.mixes))
      ~flags:(sweep_flags @ [ Mix; Csv_dir; Trace ])
      ~repro:{ defaults with threads = app_threads }
      ~bench:
        ( { quick with threads = [ 1; 8; 32; 128 ] },
          { full with threads = app_threads } );
    entry "table2" "Allocator stress, malloc-free pairs/ms (Table 2)."
      (fun p ->
        let t =
          table2 ~locks:(traced p R.app_locks) ~topology:p.topology
            ~threads:p.threads ~duration:p.duration ~seed:p.seed ()
        in
        sections [ Table t; Csv t ])
      ~flags:(sweep_flags @ [ Csv_dir; Trace ])
      ~repro:{ defaults with threads = alloc_threads }
      ~bench:
        ( { quick with threads = [ 1; 8; 64; 255 ] },
          { full with threads = alloc_threads } );
    entry "ablation-handoff" "Sweep of the may-pass-local bound (section 3.7)."
      (one ablation_handoff_bound) ~flags:point_flags ~bench:(quick, full);
    entry "ablation-hbo" "HBO backoff-parameter instability across workloads."
      (one ablation_hbo_tuning) ~flags:[ Topology; window; Seed ]
      ~bench:(quick, full);
    entry "ablation-policy"
      "Counted vs time-budget may-pass-local policies (section 2.1)."
      (one ablation_policy) ~flags:point_flags ~bench:(quick, full);
    entry "ext-blocking" "Extension: the blocking cohort lock C-BLK-BLK."
      (one extension_blocking) ~flags:sweep_flags
      ~repro:{ defaults with threads = app_threads }
      ~bench:
        ( { quick with threads = [ 1; 8; 32; 128 ] },
          { full with threads = app_threads } );
    entry "ext-rw" "Extension: the NUMA-aware reader-writer lock C-RW-WP."
      (one extension_rw) ~flags:point_flags ~bench:(quick, full);
    entry "ext-bimodal" "Extension: bi-modal (phase-alternating) KV workload."
      (one extension_bimodal)
      ~flags:[ Topology; N_threads "Server threads."; window; Seed ]
      ~repro:{ defaults with n_threads = 32 }
      ~bench:({ quick with n_threads = 32 }, { full with n_threads = 32 });
    entry "topology"
      "Cohort gain across machine shapes (UMA control, 2/4/8 sockets)."
      (one topology_sensitivity) ~flags:[ contending; window; Seed ]
      ~bench:(quick, full);
    entry "matrix"
      "LBench throughput of all 16 global x local cohort compositions."
      (one composition_matrix) ~flags:point_flags ~bench:(quick, full);
    entry "successors"
      "Paper-vs-successor table: MCS and C-BO-MCS against CNA (compact \
       NUMA-aware lock) and the partition ticket lock — throughput, remote \
       transfers per acquisition, and lock-metadata cache-line footprint."
      (one successor_comparison) ~flags:point_flags ~bench:(quick, full);
    (* The LBench curve on the hierarchical rack preset, same seed and
       windows as the main sweep. *)
    entry "rack" "LBench throughput on the rack preset." ~key:"lbench-rack"
      (throughput_sweep "rack"
         "Extension: LBench throughput on the rack preset (2 racks x 2 \
          sockets, pairs / s)"
         R.microbench_locks)
      ~bench:
        ( { quick with topology = Topology.rack },
          { full with topology = Topology.rack } );
    entry "hier"
      "Flat T5440 vs the rack preset (two racks of two sockets, three latency \
       tiers): the cohort gain under deeper distance structure."
      (one hierarchy_comparison) ~flags:[ contending; window; Seed ]
      ~repro:{ defaults with topology = Topology.rack }
      ~bench:(quick, full);
    (* Oversubscription: 2048 logical threads wrap onto the T5440's 256
       contexts (8 fibers per hardware thread); short window, queue-lock
       subset — the point is that the sweep completes and the cohort
       ordering survives heavy multiplexing. *)
    entry "oversub" "Oversubscribed LBench." ~key:"lbench-oversub"
      (throughput_sweep "oversub"
         "Extension: oversubscribed LBench (logical threads wrapped onto the \
          T5440's 256 contexts, pairs / s)"
         (List.filter
            (fun (e : R.entry) ->
              List.mem e.name [ "MCS"; "C-BO-MCS"; "C-TKT-MCS"; "CNA" ])
            R.microbench_locks))
      ~bench:
        ( { quick with threads = [ 512; 2048 ]; duration = 400_000 },
          { full with threads = [ 512; 2048 ]; duration = 1_000_000 } );
    (* Saturation collapse from capacity to far past it. The expensive
       extreme rows are the subcommand's defaults; the bench's short
       sweep keeps every collapse lock on the perf trajectory
       (bench_diff's coverage gate reads these curves). *)
    entry "collapse"
      "Saturation collapse under extreme oversubscription: plain BO/TKT/MCS \
       against their GCR concurrency-restricted wrappers and the cohort \
       reference, from in-capacity thread counts to thousands of logical \
       fibers."
      collapse ~key:"collapse" ~all:false
      ~flags:
        [
          Topology;
          Locks "Subset of the collapse line-up to run (default: all seven).";
          Threads;
          Duration
            "Simulated measurement window per data point, in milliseconds \
             (the post-window drain of blocked acquires runs beyond it).";
          Seed;
          Csv_dir;
          Trace;
          Emit;
        ]
      ~repro:
        {
          defaults with
          threads = [ 64; 256; 1024; 4096; 8192 ];
          duration = 2_000_000;
        }
      ~bench:
        ( { quick with threads = [ 64; 1024; 2048 ]; duration = 500_000 },
          { full with threads = [ 64; 1024; 2048; 4096 ]; duration = 1_000_000 }
        );
    entry "profile"
      "Per-lock, per-site coherence attribution profile (remote cache-to-cache \
       transfers, invalidations, stall-ns split by cause, interconnect \
       queueing) on the LBench workload."
      profile ~all:false
      ~flags:
        [
          Topology;
          Locks "Registry locks to profile (default: MCS C-BO-MCS CNA PTL).";
          contending;
          window;
          Seed;
          Check
            "Exit non-zero unless C-BO-MCS shows strictly fewer remote \
             transfers per acquisition than MCS, and CNA touches fewer \
             distinct lock-metadata cache lines than C-BO-MCS (the \
             paper-claim gate used by scripts/ci.sh).";
        ]
      ~repro:{ defaults with locks = successor_lineup };
    entry "predict"
      "Analytic throughput prediction (serial/contended decomposition over the \
       trace rollup and interconnect stats) against the measured LBench \
       curves, ranked by error."
      predict ~all:false
      ~flags:
        [
          Topology;
          Locks "Registry locks to predict (default: MCS C-BO-MCS CNA PTL).";
          Threads;
          window;
          Seed;
          Check
            "Exit non-zero unless the median absolute prediction error on the \
             core curves (MCS, C-BO-MCS, CNA at the pinned thread counts) \
             stays within the stated band (the prediction gate used by \
             scripts/ci.sh).";
        ]
      ~repro:
        {
          defaults with
          locks = successor_lineup;
          threads = Gates.pred_core_threads;
        };
  ]

(* --- Drivers' shared plumbing --------------------------------------------- *)

let view ids out =
  let keep = function
    | Table t | Csv t -> List.mem t.t_id ids
    | Text _ -> true
  in
  { out with sections = List.filter keep out.sections }

let print_section = function
  | Table t ->
      Report.print_series ~title:t.t_title ~x_label:t.t_xlabel
        ~columns:t.t_columns ~rows:t.t_rows ~fmt:t.t_fmt ()
  | Csv _ -> ()
  | Text s ->
      print_string s;
      flush stdout

let artifact ~seed runs =
  Bench_json.make ~substrate:"sim" ~seed
    (List.concat_map
       (fun (e, out) ->
         match e.key with
         | None -> []
         | Some experiment ->
             List.map (Bench_json.entry_of_result ~experiment) out.results)
       runs)

(* A .jsonl path streams JSONL as events happen; anything else buffers
   in a ring and lands a Chrome trace_event file on [finish]. *)
let trace_sink = function
  | None -> (Numa_trace.Sink.noop, ignore)
  | Some path when Filename.check_suffix path ".jsonl" ->
      let sink = Numa_trace.Jsonl.to_file path in
      (sink, fun () -> Numa_trace.Sink.close sink)
  | Some path ->
      let ring = Numa_trace.Ring.create ~capacity:1_048_576 in
      ( Numa_trace.Ring.sink ring,
        fun () -> Numa_trace.Chrome.write_file path (Numa_trace.Ring.events ring)
      )

let parse_positive s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Ok n
  | Some n -> Error (Printf.sprintf "expected an integer >= 1, got %d" n)
  | None -> Error (Printf.sprintf "expected an integer, got %S" s)

let parse_threads s =
  match
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun x -> x <> "")
  with
  | [] -> Error "expected a non-empty comma-separated list of thread counts"
  | items ->
      List.fold_right
        (fun x acc ->
          match (parse_positive x, acc) with
          | Ok n, Ok l -> Ok (n :: l)
          | (Error _ as e), _ | _, (Error _ as e) -> e)
        items (Ok [])
