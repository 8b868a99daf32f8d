(** The experiment table: every figure, table, ablation and extension of
    the evaluation as one {!entry} (see DESIGN.md section 3).

    [bin/repro.exe] generates its subcommands from {!entries},
    [bench/main.exe] runs the entries' quick/full parameters in table
    order, and both emit the [cohort-bench/3] artifact from the entries'
    results. Adding an experiment is adding one entry. Every run is
    deterministic in [seed]. Durations are simulated nanoseconds: the
    paper measures 60 s windows, but LBench reaches steady state in well
    under a millisecond, so the windows here are 0.4-10 ms. *)

type params = {
  topology : Numa_base.Topology.t;
  threads : int list;  (** thread counts of a sweep. *)
  n_threads : int;  (** thread count of a single-point experiment. *)
  duration : int;  (** simulated ns per data point. *)
  seed : int;
  patience : int;  (** abortable-lock patience, ns (Figure 6). *)
  mixes : Apps.Kv_workload.mix list;  (** Table 1 get/set mixes. *)
  locks : string list;  (** registry lock selection, where an entry takes one. *)
  check : bool;  (** also evaluate the entry's CI gates. *)
  sink : Numa_trace.Sink.t;  (** receives every lock event of the runs. *)
  rollup : bool;  (** capture trace-metric rollups (artifacts, prediction). *)
  profile : bool;  (** print per-site coherence attribution (Figures 2-5). *)
  predict : bool;  (** print the throughput oracle's table (Figures 2-5). *)
}

(** One printable table: rows of (x value, one cell per column). *)
type table = {
  t_id : string;  (** section id: CSV file stem and view selector. *)
  t_title : string;
  t_xlabel : string;
  t_columns : string list;
  t_rows : (int * float array) list;
  t_fmt : float -> string;
}

type section =
  | Table of table
  | Csv of table  (** also written as [<t_id>.csv] under [--csv-dir]. *)
  | Text of string  (** printed verbatim. *)

type output = {
  sections : section list;
  results : Lbench.result list;  (** artifact entries, column-major. *)
  checks : (unit -> (string, string) result) list;
      (** gates to evaluate after printing, in order. *)
}

exception Usage_error of string
(** Raised by a run for input it cannot use (an unknown lock name, a
    gate point missing from the run). *)

type flag =
  | Topology
  | Threads
  | N_threads of string  (** doc *)
  | Duration of string  (** doc *)
  | Seed
  | Patience
  | Mix
  | Locks of string  (** positional; doc *)
  | Check of string  (** doc *)
  | Csv_dir
  | Trace
  | Emit
  | Profile

val window : flag
(** [--duration-ms] with the usual doc. *)

type entry = {
  name : string;  (** subcommand name; unique. *)
  doc : string;
  key : string option;  (** artifact experiment key; unique. *)
  flags : flag list;  (** [repro] options; [[]]: not a subcommand. *)
  views : (string * string * string list) list;
      (** extra subcommands [(name, doc, section ids)] printing a subset. *)
  repro : params;  (** the subcommand's defaults. *)
  in_all : bool;  (** run by [repro all]. *)
  bench : (params * params) option;  (** [bench/main.exe] quick, full. *)
  run : params -> output;
}

val entries : entry list
(** In [bench/main.exe] order. *)

val defaults : params
(** T5440, 10 ms windows, seed 42, no tracing. *)

val quick : params
(** [bench/main.exe quick]: 2 ms windows, Figures at 1/8/64/256 threads. *)

val full : params

val params_summary : params -> string
val view : string list -> output -> output
(** Keep the [Table]/[Csv] sections with these ids (and all [Text]). *)

val print_section : section -> unit
(** [Csv] prints nothing; writing files is the caller's. *)

val artifact : seed:int -> (entry * output) list -> Bench_json.t
(** The simulated artifact: every result of every keyed entry. *)

val trace_sink : string option -> Numa_trace.Sink.t * (unit -> unit)
(** A sink for [--trace FILE] and the finaliser that lands the file: a
    [.jsonl] path streams JSONL, anything else writes a Chrome
    trace_event file. *)

val parse_positive : string -> (int, string) result
(** An integer [>= 1] (thread counts, windows). *)

val parse_threads : string -> (int list, string) result
(** Comma-separated counts [>= 1], at least one (empty items skipped). *)

(** {1 Runners used outside the table} *)

val cfg_for : Numa_base.Topology.t -> int list -> Cohort.Lock_intf.config
(** The machine's config with [max_threads] widened to cover the largest
    thread count in a sweep — required for oversubscribed sweeps, a no-op
    for in-capacity ones. *)

type sweep = {
  threads : int list;
  columns : string list;  (** lock names. *)
  cells : Lbench.result array array;
      (** [cells.(col).(row)] for column lock, row thread-count. *)
}

val microbench_sweep :
  ?locks:Lock_registry.entry list ->
  ?rollup:bool ->
  ?profile:bool ->
  topology:Numa_base.Topology.t ->
  threads:int list ->
  duration:int ->
  seed:int ->
  unit ->
  sweep
(** LBench for every (lock, thread-count) — the Figure 2-5 data.
    [~rollup]/[~profile] as in {!Bench_core.Make.run}. *)

val throughput_rows : sweep -> (int * float array) list

val low_contention : sweep -> sweep
(** Restrict to thread counts <= 16 (Figure 4). *)

val table1 :
  ?locks:Lock_registry.entry list ->
  topology:Numa_base.Topology.t ->
  threads:int list ->
  duration:int ->
  seed:int ->
  mix:Apps.Kv_workload.mix ->
  unit ->
  table
(** Table 1: memcached-style KV store speedups over pthread at 1 thread. *)

val table2 :
  ?locks:Lock_registry.entry list ->
  topology:Numa_base.Topology.t ->
  threads:int list ->
  duration:int ->
  seed:int ->
  unit ->
  table
(** Table 2: allocator stress (mmicro), malloc-free pairs per millisecond. *)

val collapse_run :
  Lock_registry.entry ->
  topology:Numa_base.Topology.t ->
  n_threads:int ->
  duration:int ->
  seed:int ->
  Lbench.result
(** One saturation-collapse data point: the LBench-style loop with an
    explicit preemption model (quantum expiry at the pre-acquire and
    post-acquire checkpoints costs a full descheduling round of
    [(ceil(n/contexts) - 1) * 10us]), which makes oversubscription hurt
    the way a real scheduler does. In-capacity runs are untouched by the
    model; only work completed inside the measurement window counts
    (the post-window drain of blocked acquires still runs). Latency and
    miss metrics are [nan] — the experiment measures throughput,
    iterations, fairness and migrations. *)
