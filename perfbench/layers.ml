(* Per-layer microbenchmarks. Each calls only public functions of one
   layer and reports ns (and minor words) per operation, the median of
   [reps] timed repetitions after one untimed warm-up. *)

module SM = Numasim.Sim_mem
module Engine = Numasim.Engine
module Coh = Numasim.Coherence
module Heap = Numasim.Event_heap
module LI = Cohort.Lock_intf

let reps = 5

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [f ()] performs [ops] operations; returns (ns/op, words/op), each the
   median over the timed repetitions. *)
let measure ~ops f =
  ignore (f ());
  let ns = ref [] and words = ref [] in
  for _ = 1 to reps do
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    let dt = Unix.gettimeofday () -. t0 in
    ns := (dt *. 1e9 /. float_of_int ops) :: !ns;
    words := ((Gc.minor_words () -. w0) /. float_of_int ops) :: !words
  done;
  (median !ns, median !words)

(* --- numasim: Event_heap ------------------------------------------------- *)

(* One add then one pop at a steady depth of [depth] events; the
   pseudo-random delays are drawn before timing. *)
let heap_add_pop ~depth =
  let ops = 200_000 in
  let h = Heap.create ~dummy:0 in
  let rng = Numa_base.Prng.create 7 in
  for i = 1 to depth do
    Heap.add h ~time:(Numa_base.Prng.int rng 1_000_000) i
  done;
  let delay = Array.init ops (fun _ -> 1 + Numa_base.Prng.int rng 100_000) in
  measure ~ops (fun () ->
      for i = 0 to ops - 1 do
        Heap.add h ~time:(Heap.min_time h + delay.(i)) i;
        ignore (Heap.pop h)
      done)

(* --- numasim: Coherence.access ------------------------------------------ *)

let coh_topology = Numa_base.Topology.t5440

(* One access class: [n] fresh lines, each put in the class's start state
   by [prep] and then accessed once, untimed preparation first. Simulated
   time advances far between accesses, so no line is ever busy. *)
let coherence_class ~prep ~domain ~thread kind =
  let n = 100_000 in
  let stats = Coh.fresh_stats () in
  let now = ref 0 in
  let access line ~domain ~thread kind =
    now := !now + 100_000;
    ignore
      (Coh.access stats coh_topology line ~now:!now ~epoch:1 ~domain ~thread
         kind)
  in
  let once () =
    let lines = Array.init n (fun _ -> Coh.make_line ()) in
    Array.iter (prep access) lines;
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    for i = 0 to n - 1 do
      access lines.(i) ~domain ~thread kind
    done;
    let dt = Unix.gettimeofday () -. t0 in
    (dt *. 1e9 /. float_of_int n, (Gc.minor_words () -. w0) /. float_of_int n)
  in
  ignore (once ());
  let runs = List.init reps (fun _ -> once ()) in
  (median (List.map fst runs), median (List.map snd runs))

(* Thread 64k runs on cluster k of the T5440's four. *)
let l1_hit () =
  coherence_class
    ~prep:(fun access l -> access l ~domain:0 ~thread:0 Coh.Read)
    ~domain:0 ~thread:0 Coh.Read

let remote_read () =
  coherence_class
    ~prep:(fun access l -> access l ~domain:0 ~thread:0 Coh.Write)
    ~domain:1 ~thread:64 Coh.Read

let inval_write () =
  coherence_class
    ~prep:(fun access l ->
      access l ~domain:0 ~thread:0 Coh.Write;
      List.iter
        (fun d -> access l ~domain:d ~thread:(64 * d) Coh.Read)
        [ 1; 2; 3 ])
    ~domain:0 ~thread:1 Coh.Write

(* --- numasim: Engine.run -------------------------------------------------- *)

(* The bin/enginebench.exe scenarios: [sections] lock/increment/unlock
   critical sections per thread. *)
let engine_scenario ~topology ~n_threads ~sections ?policy (module L : LI.LOCK)
    () =
  let cfg =
    {
      LI.default with
      LI.clusters = topology.Numa_base.Topology.clusters;
      max_threads = Numa_base.Topology.total_threads topology;
    }
  in
  let lock = L.create cfg in
  let data = SM.cell (SM.line ~name:"cs.data" ()) 0 in
  Engine.run ~topology ~n_threads ?policy (fun ~tid ~cluster ->
      let th = L.register lock ~tid ~cluster in
      for _ = 1 to sections do
        L.acquire th;
        SM.write data (SM.read data + 1);
        L.release th
      done)

module Bo = Cohort.Bo_lock.Make (SM)
module Cbomcs = Cohort.Cohort_locks.C_bo_mcs (SM)

(* (ns/event, words/event, fast-path share) *)
let engine run =
  let r = run () in
  let events = r.Engine.events in
  let ns, words = measure ~ops:events (fun () -> ignore (run ())) in
  (ns, words, float_of_int r.Engine.fp_hits /. float_of_int events)

let uncontended =
  engine_scenario ~topology:Numa_base.Topology.small ~n_threads:1 ~sections:2_000
    (module Bo.Plain)

let contended =
  engine_scenario ~topology:Numa_base.Topology.t5440 ~n_threads:32 ~sections:40
    (module Cbomcs)

let explore_mode =
  engine_scenario ~topology:Numa_base.Topology.t5440 ~n_threads:8 ~sections:40
    ~policy:(fun ~step:_ _ -> 0)
    (module Cbomcs)

(* --- numa_trace ----------------------------------------------------------- *)

let ring_push () =
  let ops = 500_000 in
  let r = Numa_trace.Ring.create ~capacity:65_536 in
  let ev =
    Numa_trace.Event.
      { at = 0; tid = 1; cluster = 0; kind = Acquire_local }
  in
  measure ~ops (fun () ->
      for _ = 1 to ops do
        Numa_trace.Ring.push r ev
      done)

(* Events of a real traced LBench run (C-BO-MCS, 64 threads). *)
let traced_events () =
  let ring = Numa_trace.Ring.create ~capacity:1_048_576 in
  let e =
    Harness.Lock_registry.with_trace (Numa_trace.Ring.sink ring)
      (Option.get (Harness.Lock_registry.find "C-BO-MCS"))
  in
  let topology = Numa_base.Topology.t5440 in
  let cfg = e.tweak (Harness.Experiments.cfg_for topology [ 64 ]) in
  ignore
    (Harness.Lbench.run e.lock ~topology ~cfg ~n_threads:64 ~duration:500_000
       ~seed:1);
  Numa_trace.Ring.events ring

let metrics_of_events events =
  let n = List.length events in
  fst (measure ~ops:n (fun () -> ignore (Numa_trace.Metrics.of_events events)))

let json_to_string (j : Numa_trace.Json.t) =
  let render () = Numa_trace.Json.to_string ~pretty:true j in
  fst (measure ~ops:(String.length (render ())) render)

(* --- numa_check ----------------------------------------------------------- *)

(* One default-schedule replay of the C-BO-MCS scenario. *)
let run_once () =
  let sc =
    Numa_check.Explore.scenario
      (Option.get (Harness.Lock_registry.find "C-BO-MCS")).lock
  in
  let ops = 50 in
  fst
    (measure ~ops (fun () ->
         for _ = 1 to ops do
           ignore (Numa_check.Explore.run_once sc [])
         done))

(* --- All of them, as named metrics ------------------------------------------ *)

let all ~(artifact : Numa_trace.Json.t) =
  let d256, w256 = heap_add_pop ~depth:256 in
  let d4096, _ = heap_add_pop ~depth:4096 in
  let l1, wl1 = l1_hit () in
  let rr, _ = remote_read () in
  let iw, _ = inval_write () in
  let un_ns, _, un_fp = engine uncontended in
  let co_ns, co_w, co_fp = engine contended in
  let ex_ns, _, _ = engine explore_mode in
  let push_ns, push_w = ring_push () in
  let mev = metrics_of_events (traced_events ()) in
  let jb = json_to_string artifact in
  let once = run_once () in
  [
    ("numasim.heap.add_pop_ns.d256", d256, "ns");
    ("numasim.heap.add_pop_ns.d4096", d4096, "ns");
    ("numasim.heap.words_per_op", w256, "words");
    ("numasim.coherence.access_ns.l1_hit", l1, "ns");
    ("numasim.coherence.access_ns.remote_read", rr, "ns");
    ("numasim.coherence.access_ns.inval_write", iw, "ns");
    ("numasim.coherence.words_per_access", wl1, "words");
    ("numasim.engine.ns_per_event.uncontended", un_ns, "ns");
    ("numasim.engine.ns_per_event.contended", co_ns, "ns");
    ("numasim.engine.ns_per_event.explore", ex_ns, "ns");
    ("numasim.engine.fp_share.uncontended", un_fp, "ratio");
    ("numasim.engine.fp_share.contended", co_fp, "ratio");
    ("numasim.engine.words_per_event.contended", co_w, "words");
    ("numa_trace.ring.push_ns", push_ns, "ns");
    ("numa_trace.ring.words_per_push", push_w, "words");
    ("numa_trace.metrics.ns_per_event", mev, "ns");
    ("numa_trace.json.ns_per_byte", jb, "ns");
    ("numa_check.ns_per_schedule", once, "ns");
  ]
