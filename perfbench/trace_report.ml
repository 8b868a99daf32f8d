(* The per-layer metrics of a traced run: span-derived figures from the
   traced pass, counts from its result records, and the microbenchmarks
   of Layers. A metric whose layer the workload does not exercise (e.g.
   apps.table1_s on explore) reads 0. *)

module W = Workloads

let span_total pred =
  List.fold_left
    (fun acc s -> if pred s.Span.name then acc +. Span.duration s else acc)
    0. !Span.spans

(* Summed over the pass's artifact entries that carry coherence counters
   (the in-capacity LBench entries; collapse entries have none). *)
let coherence_ratios (p : W.pass) =
  let acc, rem, iters =
    List.fold_left
      (fun (acc, rem, iters) (experiment, r) ->
        let m = (Harness.Bench_json.entry_of_result ~experiment r).metrics in
        match
          ( List.assoc_opt "coh_accesses" m,
            List.assoc_opt "coh_remote_transfers" m,
            List.assoc_opt "iterations" m )
        with
        | Some a, Some t, Some i -> (acc +. a, rem +. t, iters +. i)
        | _ -> (acc, rem, iters))
      (0., 0., 0.) p.results
  in
  let ratio x y = if y > 0. then x /. y else 0. in
  (ratio acc iters, ratio rem acc)

let layers = [ "bench"; "refkernel"; "harness"; "apps"; "numa_check" ]

let metrics ~bench_file ~(plain : W.pass) ~(traced : W.pass) =
  let root = match Span.roots () with [ r ] -> Span.duration r | _ -> nan in
  let self = Span.self_by_layer () in
  let self_of l = Option.value ~default:0. (Hashtbl.find_opt self l) in
  let top_point =
    List.fold_left (fun m (_, s) -> Float.max m s) 0. traced.points
  in
  let acc_per_acq, remote_share = coherence_ratios traced in
  let explored = traced.schedules + traced.pruned in
  let artifact =
    match Harness.Bench_json.read bench_file with
    | Ok t -> Harness.Bench_json.to_json t
    | Error e -> failwith (bench_file ^ ": " ^ e)
  in
  [
    ("bench.root_s", root, "s");
    ("bench.trace_overhead", (W.rel traced /. W.rel plain) -. 1., "ratio");
  ]
  @ List.map (fun l -> ("bench.self_s." ^ l, self_of l, "s")) layers
  @ [
      ("harness.emit_s", traced.emit_s, "s");
      (* share of the workload's own time, reference slices excluded *)
      ("harness.top_point_share", top_point /. traced.work_s, "ratio");
      ("apps.table1_s", span_total (String.starts_with ~prefix:"table1."), "s");
      ("apps.table2_s", span_total (String.equal "table2"), "s");
      ("cohort.accesses_per_acq", acc_per_acq, "count");
      ("numasim.coherence.remote_share", remote_share, "ratio");
      ("numa_check.schedules", float_of_int traced.schedules, "count");
      ( "numa_check.pruned_share",
        (if explored > 0 then
           float_of_int traced.pruned /. float_of_int explored
         else 0.),
        "ratio" );
    ]
  @ Layers.all ~artifact
