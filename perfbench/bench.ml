(* The repository benchmark: one process, one OS thread, every simulated
   thread an effect fiber. See NOTES.md.

     bench.exe --workload paper|collapse|explore --seed N --seconds S
               --trace 0|1 [--tiny] [--corrupt-reference]

   Run from the repository root (it reads BENCH_0010.json there). The
   last line of stdout is one JSON object: correct, attempted, failed and
   the metrics — the end-to-end ones with --trace 0, the per-layer ones
   with --trace 1. Lines before it are for people. *)

module W = Workloads

let t_start = Unix.gettimeofday ()
let bench_file = "BENCH_0010.json"
let setup_reps = 9

(* Set-up is timed against a small reference slice run right after each
   set-up, like wall_rel, and rescaled by the slice's time on the host
   the benchmark was defined on, so setup_s reads in seconds there. Raw
   set-up time moved by +-25% between runs minutes apart on that host;
   the ratio moved by about +-6%. *)
let setup_slice = (64, 100)
let setup_slice_ref_s = 0.002

let usage () =
  prerr_endline
    "usage: bench.exe --workload paper|collapse|explore --seed N --seconds S \
     --trace 0|1 [--tiny] [--corrupt-reference]";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;
  corrupt : bool;
}

let parse argv =
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: r -> go { a with workload = w } r
    | "--seed" :: s :: r -> go { a with seed = int_of_string s } r
    | "--seconds" :: s :: r -> go { a with seconds = float_of_string s } r
    | "--trace" :: ("0" | "1" as t) :: r -> go { a with trace = t = "1" } r
    | "--tiny" :: r -> go { a with tiny = true } r
    | "--corrupt-reference" :: r -> go { a with corrupt = true } r
    | _ -> usage ()
  in
  let a =
    try
      go
        {
          workload = "";
          seed = -1;
          seconds = -1.;
          trace = false;
          tiny = false;
          corrupt = false;
        }
        argv
    with Failure _ -> usage ()
  in
  if W.find a.workload = None || a.seed < 0 || a.seconds <= 0. then usage ();
  a

let median = Layers.median

(* Reference-kernel slice (fibers, steps) per segment, per workload:
   fixed work, sized so the slices take about a fifth of a pass or a bit
   more where the segments are short. *)
let slice_of = function
  | "paper" -> (256, 500)
  | "collapse" -> (256, 250)
  | _ -> (128, 200)

let run_pass a refs run =
  let p = W.new_pass () in
  let c = { W.p; refs; slice = slice_of a.workload } in
  let size = if a.tiny then W.Tiny else W.Full in
  Span.with_ ~layer:"bench" a.workload (fun () -> run c ~size ~seed:a.seed);
  p

let print_json ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " m)

let () =
  let a = parse (List.tl (Array.to_list Sys.argv)) in
  let run = Option.get (W.find a.workload) in
  (* Set-up: load and index every reference. Repeated so setup_s is a
     median; the first sample also covers process start. *)
  let setup_rel = ref [] and refs = ref None in
  for i = 1 to setup_reps do
    let t0 = if i = 1 then t_start else Unix.gettimeofday () in
    refs := Some (W.load_refs ~seed:a.seed ~bench_file ~corrupt:a.corrupt);
    let dt = Unix.gettimeofday () -. t0 in
    let fibers, steps = setup_slice in
    setup_rel := (dt /. Refkernel.time_slice ~fibers ~steps) :: !setup_rel
  done;
  let refs = Option.get !refs in
  let setup_s = median !setup_rel *. setup_slice_ref_s in
  let t_meas = Unix.gettimeofday () in
  let passes = ref [] in
  let elapsed () = Unix.gettimeofday () -. t_meas in
  if a.trace then begin
    (* One plain pass, then one traced pass: their ratio is the tracing
       overhead. *)
    passes := [ run_pass a refs run ];
    Span.enabled := true;
    passes := run_pass a refs run :: !passes;
    Span.enabled := false
  end
  else begin
    (* At least two passes (the second checks the first), then more while
       another pass of the mean length still fits in the budget. *)
    let continue () =
      let n = List.length !passes in
      n < 2 || elapsed () *. float_of_int (n + 1) /. float_of_int n <= a.seconds
    in
    while continue () do
      passes := run_pass a refs run :: !passes
    done
  end;
  let passes = List.rev !passes in
  let attempted = List.fold_left (fun s p -> s + p.W.attempted) 0 passes in
  let failures = List.concat_map (fun p -> List.rev !(p.W.failures)) passes in
  let failed = List.length failures in
  List.iter
    (fun f -> Printf.printf "FAILED %s: %s\n" f.W.f_key f.W.f_why)
    failures;
  let last = List.nth passes (List.length passes - 1) in
  let per_pass fmt f =
    String.concat "," (List.map (fun p -> Printf.sprintf fmt (f p)) passes)
  in
  let top_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1_048_576.
  in
  Printf.printf
    "workload=%s seed=%d passes=%d wall_s=%s ref_s=%s wall_rel=%s \
     fail_ratio=%g measured_s=%.1f\n"
    a.workload a.seed (List.length passes)
    (per_pass "%.3f" (fun p -> p.W.work_s))
    (per_pass "%.4f" (fun p -> p.W.ref_s))
    (per_pass "%.4f" W.rel)
    (float_of_int failed /. float_of_int (max 1 attempted))
    (elapsed ());
  let metrics =
    if not a.trace then
      [
        ("setup_s", setup_s, "s");
        ("wall_rel", median (List.map W.rel passes), "ratio");
        ("alloc_mwords", last.W.minor_words /. 1e6, "Mwords");
        ("peak_heap_mb", top_heap_mb, "MB");
      ]
    else Trace_report.metrics ~bench_file ~plain:(List.hd passes) ~traced:last
  in
  if a.trace then begin
    (try Sys.mkdir ".perfbench" 0o755 with Sys_error _ -> ());
    let path = Printf.sprintf ".perfbench/spans-%s-%d.json" a.workload a.seed in
    Span.write_chrome path;
    Printf.printf "spans written to %s\n" path
  end;
  print_json ~correct:(failed = 0) ~attempted ~failed metrics
