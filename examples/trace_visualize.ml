(* Seeing cohort batching: trace lock ownership over a contended run and
   draw which NUMA cluster held the lock over time.

     dune exec examples/trace_visualize.exe

   Each column is a slice of simulated time; the digit is the cluster
   that owned the lock. A NUMA-oblivious lock shows confetti; a cohort
   lock shows long same-digit runs — the batches that keep the critical
   section's cache lines on one socket. *)

module M = Numasim.Sim_mem
module E = Numasim.Engine
module LI = Cohort.Lock_intf
module Ev = Numa_trace.Event

let topology = Numa_base.Topology.t5440
let n_threads = 32
let duration = 200_000 (* a short window so individual batches are visible *)

(* One character per time bucket: the digit of the cluster holding the
   lock, painted over each [acquire, release) interval, or '.' when the
   lock was free. *)
let render_timeline ~width (events : Ev.t list) =
  let events =
    List.filter (fun (e : Ev.t) -> Ev.is_acquire e.kind || Ev.is_release e.kind) events
  in
  let t_end = max 1 (List.fold_left (fun m (e : Ev.t) -> max m e.at) 0 events) in
  let buf = Bytes.make width '.' in
  let col t = min (width - 1) (t * width / t_end) in
  let rec go = function
    | (a : Ev.t) :: rest when Ev.is_acquire a.kind ->
        let upto =
          match rest with
          | (r : Ev.t) :: _ when Ev.is_release r.kind -> r.at
          | _ -> t_end
        in
        for c = col a.at to max (col a.at) (col upto) do
          Bytes.set buf c (Char.chr (Char.code '0' + (a.cluster mod 10)))
        done;
        go rest
    | _ :: rest -> go rest
    | [] -> ()
  in
  go events;
  Bytes.to_string buf

let show name (module L : LI.LOCK) =
  let ring = Numa_trace.Ring.create ~capacity:65_536 in
  let cfg =
    {
      LI.default with
      LI.clusters = 4;
      max_threads = 256;
      trace = Numa_trace.Ring.sink ring;
    }
  in
  let l = L.create cfg in
  ignore
    (E.run ~topology ~n_threads (fun ~tid ~cluster ->
         let th = L.register l ~tid ~cluster in
         let rng = Numa_base.Prng.create (tid + 5) in
         let rec loop () =
           if M.now () < duration then begin
             L.acquire th;
             M.pause 150;
             L.release th;
             M.pause (Numa_base.Prng.int rng 2_000);
             loop ()
           end
         in
         loop ()));
  let evs = Numa_trace.Ring.events ring in
  let m = Numa_trace.Metrics.of_events evs in
  Printf.printf "%-10s |%s|\n" name (render_timeline ~width:64 evs);
  (* A batch here is a run of same-cluster acquisitions. *)
  Printf.printf "%10s  mean batch %.1f, %d migrations, %d acquisitions\n\n" ""
    (float_of_int m.acquires /. float_of_int (m.migrations + 1))
    m.migrations m.acquires

let () =
  Printf.printf
    "Lock ownership timeline (digit = cluster holding the lock):\n\n";
  List.iter
    (fun name -> show name (Option.get (Harness.Lock_registry.find name)).lock)
    [ "MCS"; "HBO"; "C-BO-MCS" ]
