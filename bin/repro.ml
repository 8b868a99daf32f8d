(* Command-line driver regenerating every figure and table of the paper:
   one subcommand per entry of Harness.Experiments.entries (plus the
   entries' views, and [all]).

   Examples:
     repro figs                     # figures 2-5 from one sweep
     repro fig6 --patience-us 300
     repro table1 --mix write
     repro table2 --threads 1,2,4,8,16,32,64,128,255
     repro all --duration-ms 20 --csv-dir out/ *)

open Cmdliner
module X = Harness.Experiments
module W = Apps.Kv_workload

let conv parse print =
  Arg.conv ((fun s -> Result.map_error (fun e -> `Msg e) (parse s)), print)

let topology_conv =
  conv Numa_base.Topology.of_spec (fun ppf t ->
      Format.fprintf ppf "%s" t.Numa_base.Topology.name)

let count_conv = conv X.parse_positive Format.pp_print_int

let threads_conv =
  conv X.parse_threads (fun ppf l ->
      Format.fprintf ppf "%s" (String.concat "," (List.map string_of_int l)))

let mix_conv =
  Arg.enum
    [ ("read", [ W.read_heavy ]); ("mixed", [ W.mixed ]);
      ("write", [ W.write_heavy ]);
      ("all", [ W.read_heavy; W.mixed; W.write_heavy ]) ]

(* Output files of a run, beside its parameters. *)
type io = { csv_dir : string option; trace : string option; emit : string option }

let file_arg name docv doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv ~doc)

(* One option, as an update of the (params, io) pair; [d] supplies the
   entry's defaults. *)
let option_term (d : X.params) flag =
  let param (set : X.params -> _ -> X.params) arg =
    Term.(const (fun v (p, io) -> (set p v, io)) $ arg)
  in
  let opt set c default name ~docv ~doc =
    param set Arg.(value & opt c default & info [ name ] ~docv ~doc)
  in
  let file set arg = Term.(const (fun v (p, io) -> (p, set io v)) $ arg) in
  match flag with
  | X.Topology ->
      opt
        (fun p topology -> { p with X.topology })
        topology_conv d.topology "topology" ~docv:"SPEC"
        ~doc:
          "Machine model: t5440|small|rack, CxT for a flat machine (e.g. \
           4x64), or RxSxT for a rack-of-sockets hierarchy (e.g. 2x2x64). \
           Thread counts beyond its capacity run oversubscribed."
  | X.Threads ->
      opt
        (fun p threads -> { p with X.threads })
        threads_conv d.threads "threads" ~docv:"N,N,..."
        ~doc:"Thread counts to sweep."
  | X.N_threads doc ->
      opt
        (fun p n_threads -> { p with X.n_threads })
        count_conv d.n_threads "n-threads" ~docv:"N" ~doc
  | X.Duration doc ->
      opt
        (fun p ms -> { p with X.duration = ms * 1_000_000 })
        count_conv (d.duration / 1_000_000) "duration-ms" ~docv:"MS" ~doc
  | X.Seed ->
      opt (fun p seed -> { p with X.seed }) Arg.int d.seed "seed" ~docv:"SEED"
        ~doc:"PRNG seed."
  | X.Patience ->
      opt
        (fun p us -> { p with X.patience = us * 1_000 })
        Arg.int (d.patience / 1_000) "patience-us" ~docv:"US"
        ~doc:"Abortable-lock patience in microseconds (Figure 6)."
  | X.Mix ->
      opt
        (fun p mixes -> { p with X.mixes })
        mix_conv d.mixes "mix" ~docv:"MIX"
        ~doc:"Table 1 get/set mix: read|mixed|write|all."
  | X.Locks doc ->
      param
        (fun p locks -> { p with X.locks })
        Arg.(value & pos_all string d.locks & info [] ~docv:"LOCK" ~doc)
  | X.Check doc ->
      param (fun p check -> { p with X.check }) Arg.(value & flag & info [ "check" ] ~doc)
  | X.Profile ->
      param
        (fun p profile -> { p with X.profile })
        Arg.(
          value & flag
          & info [ "profile" ]
              ~doc:
                "Also print a per-site coherence attribution table (remote \
                 transfers, invalidations, stall-ns split) for every lock at \
                 the highest thread count of the sweep.")
  | X.Csv_dir ->
      file
        (fun io csv_dir -> { io with csv_dir })
        (file_arg "csv-dir" "DIR" "Also write CSV files into $(docv).")
  | X.Trace ->
      file
        (fun io trace -> { io with trace })
        (file_arg "trace" "FILE"
           "Write a lock-event trace of the runs to $(docv): a .jsonl suffix \
            streams JSONL (one event per line), anything else writes a Chrome \
            trace_event file for chrome://tracing / Perfetto.")
  | X.Emit ->
      file
        (fun io emit -> { io with emit })
        (file_arg "emit-bench-json" "FILE"
           "Write a versioned benchmark artifact (throughput plus \
            trace-derived lock metrics per lock and thread count) to \
            $(docv).")

let options d flags =
  List.fold_left
    (fun acc flag -> Term.(const (fun set acc -> set acc) $ option_term d flag $ acc))
    (Term.const (d, { csv_dir = None; trace = None; emit = None }))
    flags

let print io = function
  | X.Csv t ->
      Option.iter
        (fun dir ->
          (try Unix.mkdir dir 0o755
           with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
          let path = Filename.concat dir (t.X.t_id ^ ".csv") in
          Harness.Report.write_file path
            (Harness.Report.csv_of_series ~x_label:t.t_xlabel
               ~columns:t.t_columns ~rows:t.t_rows);
          Printf.printf "wrote %s\n%!" path)
        io.csv_dir
  | s -> X.print_section s

(* Run [(entry, view, params)] in order under one banner, trace sink and
   artifact, then evaluate the entries' gates. *)
let execute (p : X.params) io runs =
  Printf.printf "%s\n%!" (X.params_summary p);
  let sink, finish = X.trace_sink io.trace in
  try
    let outs =
      List.map
        (fun ((e : X.entry), ids, p) ->
          let out = e.run { p with X.sink; rollup = io.emit <> None } in
          let out = Option.fold ~none:out ~some:(fun ids -> X.view ids out) ids in
          List.iter (print io) out.sections;
          (e, out))
        runs
    in
    finish ();
    Option.iter (Printf.printf "wrote %s\n%!") io.trace;
    Option.iter
      (fun path ->
        Harness.Bench_json.write path (X.artifact ~seed:p.seed outs);
        Printf.printf "wrote %s\n%!" path)
      io.emit;
    List.iter
      (fun (_, out) ->
        List.iter
          (fun check ->
            match check () with
            | Ok msg -> Printf.printf "check OK: %s\n%!" msg
            | Error msg ->
                Printf.eprintf "check FAILED: %s\n%!" msg;
                exit 1)
          out.X.checks)
      outs
  with X.Usage_error msg ->
    prerr_endline msg;
    exit 2

let command (e : X.entry) (name, doc, ids) =
  Cmd.v (Cmd.info name ~doc)
    Term.(const (fun (p, io) -> execute p io [ (e, ids, p) ]) $ options e.repro e.flags)

let all_cmd =
  let run (p : X.params) io =
    List.filter (fun (e : X.entry) -> e.in_all) X.entries
    |> List.map (fun (e : X.entry) ->
           (e, None, { e.repro with topology = p.topology; duration = p.duration; seed = p.seed }))
    |> execute p io
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Run every figure and table.")
    Term.(
      const (fun (p, io) -> run p io)
      $ options X.defaults [ Topology; X.window; Seed; Csv_dir; Trace; Emit ])

let () =
  let cmds =
    List.concat_map
      (fun (e : X.entry) ->
        if e.flags = [] then []
        else
          command e (e.name, e.doc, None)
          :: List.map (fun (n, d, ids) -> command e (n, d, Some ids)) e.views)
      X.entries
  in
  let info =
    Cmd.info "repro" ~version:"1.0"
      ~doc:
        "Reproduce the evaluation of 'Lock Cohorting: A General Technique \
         for Designing NUMA Locks' (PPoPP'12) on a simulated 4-socket NUMA \
         machine."
  in
  exit (Cmd.eval (Cmd.group info (cmds @ [ all_cmd ])))
