(* The three workloads (see NOTES.md for why each was chosen) and the
   output check they share.

   A pass runs a workload once. It is cut into segments, and a slice of
   the reference kernel runs after every segment, so each stretch of
   workload time has reference time measured right beside it. Inside a
   segment, every call into a library is a point: the unit that is
   attempted, timed, spanned and checked. *)

module X = Harness.Experiments
module R = Harness.Lock_registry
module BJ = Harness.Bench_json
module W = Apps.Kv_workload
module E = Numa_check.Explore
module Mut = Numa_check.Mutants.Make (Numasim.Sim_mem)

(* --- Outputs and the check --------------------------------------------- *)

type value =
  | Entry of (string * float) list  (** artifact metrics, after a round trip. *)
  | Row of float array  (** one table row. *)
  | Verdict of string  (** ["clean"] or ["caught"] for explore. *)

let feq a b = Float.equal a b (* nan = nan, exact otherwise *)

let equal a b =
  match (a, b) with
  | Entry x, Entry y ->
      List.length x = List.length y
      && List.for_all2 (fun (k, u) (k', v) -> k = k' && feq u v) x y
  | Row x, Row y -> Array.length x = Array.length y && Array.for_all2 feq x y
  | Verdict x, Verdict y -> x = y
  | _ -> false

let corrupt = function
  | Entry ((k, v) :: rest) -> Entry ((k, v +. 1.) :: rest)
  | Row a when Array.length a > 0 ->
      let a = Array.copy a in
      a.(0) <- a.(0) +. 1.;
      Row a
  | Entry [] | Row _ -> Verdict "corrupted"
  | Verdict _ -> Verdict "corrupted"

(* References by op key. Keys present before the first pass are pinned
   (BENCH_0010.json, Pins); a key with no pin takes the first pass's
   output, so later passes are checked for bit-identical results. *)
type refs = {
  table : (string, value) Hashtbl.t;
  pinned_only : bool;  (** seed 42: an op with no pin is a failure. *)
  mutable corrupt_next : bool;  (** smoke test: spoil the next reference. *)
}

type failure = { f_key : string; f_why : string }

let check refs failures key v =
  match Hashtbl.find_opt refs.table key with
  | None when refs.pinned_only ->
      failures := { f_key = key; f_why = "no reference" } :: !failures
  | None -> Hashtbl.replace refs.table key v
  | Some r ->
      let r =
        if refs.corrupt_next then begin
          refs.corrupt_next <- false;
          let r = corrupt r in
          Hashtbl.replace refs.table key r;
          r
        end
        else r
      in
      if not (equal r v) then
        failures := { f_key = key; f_why = "differs from reference" } :: !failures

let entry_key ~experiment ~lock ~threads =
  Printf.sprintf "%s/%s/t%d" experiment lock threads

let table_key name n = Printf.sprintf "%s/t%d" name n

(* The artifact is read at every seed, so set-up does the same work
   whatever the seed; its entries become references only at seed 42. *)
let load_refs ~seed ~bench_file ~corrupt =
  let artifact =
    match BJ.read bench_file with
    | Ok t -> t
    | Error e -> failwith (Printf.sprintf "%s: %s" bench_file e)
  in
  let table = Hashtbl.create 256 in
  List.iter (fun (k, v) -> Hashtbl.replace table k (Verdict v)) Pins.verdicts;
  if seed = Pins.seed then begin
    List.iter
      (fun (e : BJ.entry) ->
        Hashtbl.replace table
          (entry_key ~experiment:e.experiment ~lock:e.lock ~threads:e.threads)
          (Entry e.metrics))
      artifact.entries;
    List.iter (fun (k, v) -> Hashtbl.replace table k (Row v)) Pins.tables
  end;
  { table; pinned_only = seed = Pins.seed; corrupt_next = corrupt }

(* --- Pass context ------------------------------------------------------- *)

type pass = {
  mutable work_s : float;  (** workload segments only. *)
  mutable ref_s : float;  (** reference slices only. *)
  mutable minor_words : float;  (** allocated by workload segments. *)
  mutable attempted : int;
  failures : failure list ref;
  mutable points : (string * float) list;  (** key, seconds. *)
  mutable schedules : int;  (** explore: schedules run. *)
  mutable pruned : int;  (** explore: deviations pruned. *)
  mutable results : (string * Harness.Lbench.result) list;
      (** LBench-style results, by artifact experiment, in run order. *)
  mutable emit_s : float;
}

let new_pass () =
  {
    work_s = 0.;
    ref_s = 0.;
    minor_words = 0.;
    attempted = 0;
    failures = ref [];
    points = [];
    schedules = 0;
    pruned = 0;
    results = [];
    emit_s = 0.;
  }

(* The pass's workload time in units of reference-kernel time. *)
let rel p = p.work_s /. p.ref_s

type ctx = { p : pass; refs : refs; slice : int * int }

(* A workload segment followed by one reference slice. *)
let segment c ~layer name f =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r = Span.with_ ~layer name f in
  c.p.work_s <- c.p.work_s +. (Unix.gettimeofday () -. t0);
  c.p.minor_words <- c.p.minor_words +. (Gc.minor_words () -. w0);
  let fibers, steps = c.slice in
  c.p.ref_s <-
    c.p.ref_s +. Span.with_ ~layer:"refkernel" "ref" (fun () ->
        Refkernel.time_slice ~fibers ~steps);
  r

(* One attempted operation; an exception counts as its failure. *)
let point c ~layer key f =
  c.p.attempted <- c.p.attempted + 1;
  let t0 = Unix.gettimeofday () in
  let r =
    try Some (Span.with_ ~layer key f)
    with exn ->
      c.p.failures :=
        { f_key = key; f_why = "raised " ^ Printexc.to_string exn }
        :: !(c.p.failures);
      None
  in
  c.p.points <- (key, Unix.gettimeofday () -. t0) :: c.p.points;
  r

(* Render the pass's results as a cohort-bench artifact, parse it back,
   and check every entry: the round trip is what a user's
   [--emit-bench-json] produces and what bench_diff reads. *)
let emit_and_check c ~seed =
  let entries =
    List.rev_map
      (fun (experiment, r) -> BJ.entry_of_result ~experiment r)
      c.p.results
  in
  let t0 = Unix.gettimeofday () in
  let parsed =
    Span.with_ ~layer:"harness" "emit" (fun () ->
        let s = BJ.to_string (BJ.make ~substrate:"sim" ~seed entries) in
        match Numa_trace.Json.of_string s with
        | Error e -> Error e
        | Ok j -> BJ.of_json j)
  in
  c.p.emit_s <- Unix.gettimeofday () -. t0;
  match parsed with
  | Error e ->
      (* Nothing can be checked: every point of the pass fails. *)
      List.iter
        (fun (e' : BJ.entry) ->
          c.p.failures :=
            {
              f_key =
                entry_key ~experiment:e'.experiment ~lock:e'.lock
                  ~threads:e'.threads;
              f_why = "artifact round trip: " ^ e;
            }
            :: !(c.p.failures))
        entries
  | Ok t ->
      List.iter
        (fun (e : BJ.entry) ->
          check c.refs c.p.failures
            (entry_key ~experiment:e.experiment ~lock:e.lock ~threads:e.threads)
            (Entry e.metrics))
        t.entries

(* --- Workloads ---------------------------------------------------------- *)

type size = Full | Tiny

let topology = Numa_base.Topology.t5440

(* The paper's evaluation at bench/main.exe's quick settings. *)
let paper c ~size ~seed =
  let duration = 2_000_000 and patience = 2_000_000 in
  let fig_threads, t1_threads, t2_threads =
    match size with
    | Full -> ([ 1; 8; 64; 256 ], [ 1; 8; 32; 128 ], [ 1; 8; 64; 255 ])
    | Tiny -> ([ 1; 8 ], [ 1; 8 ], [ 1; 8 ])
  in
  (* Same configs as X.microbench_sweep / X.abortable_sweep, one point at
     a time so each LBench run is its own span. *)
  let cfg = X.cfg_for topology fig_threads in
  List.iter
    (fun (e : R.entry) ->
      segment c ~layer:"bench" ("fig2-5." ^ e.name) (fun () ->
          List.iter
            (fun n ->
              let key = entry_key ~experiment:"lbench" ~lock:e.name ~threads:n in
              point c ~layer:"harness" key (fun () ->
                  Harness.Lbench.run ~name:e.name ~rollup:true e.lock ~topology
                    ~cfg:(e.tweak cfg) ~n_threads:n ~duration ~seed)
              |> Option.iter (fun r ->
                     c.p.results <- ("lbench", r) :: c.p.results))
            fig_threads))
    R.microbench_locks;
  List.iter
    (fun (e : R.abortable_entry) ->
      segment c ~layer:"bench" ("fig6." ^ e.a_name) (fun () ->
          List.iter
            (fun n ->
              let key =
                entry_key ~experiment:"lbench-abortable" ~lock:e.a_name
                  ~threads:n
              in
              point c ~layer:"harness" key (fun () ->
                  Harness.Lbench.run_abortable ~name:e.a_name ~rollup:true
                    e.a_lock ~topology ~cfg:(e.a_tweak cfg) ~n_threads:n
                    ~duration ~seed ~patience)
              |> Option.iter (fun r ->
                     c.p.results <- ("lbench-abortable", r) :: c.p.results))
            fig_threads))
    R.abortable_locks;
  (* A table is one call; each of its rows is an operation. *)
  let table name threads run =
    segment c ~layer:"apps" name (fun () ->
        c.p.attempted <- c.p.attempted + List.length threads;
        match run () with
        | (t : X.table) ->
            List.iter
              (fun (n, cells) ->
                check c.refs c.p.failures (table_key name n) (Row cells))
              t.t_rows
        | exception exn ->
            List.iter
              (fun n ->
                c.p.failures :=
                  {
                    f_key = table_key name n;
                    f_why = "raised " ^ Printexc.to_string exn;
                  }
                  :: !(c.p.failures))
              threads)
  in
  List.iter
    (fun (name, mix) ->
      table ("table1." ^ name) t1_threads (fun () ->
          X.table1 ~topology ~threads:t1_threads ~duration ~seed ~mix ()))
    [
      ("read-heavy", W.read_heavy);
      ("mixed", W.mixed);
      ("write-heavy", W.write_heavy);
    ];
  table "table2" t2_threads (fun () ->
      X.table2 ~topology ~threads:t2_threads ~duration ~seed ());
  segment c ~layer:"bench" "artifact" (fun () -> emit_and_check c ~seed)

(* The collapse sweep behind BENCH_0010.json's "collapse" entries, less
   BO at 2048 fibers: that one point costs about 11 s, so a run could hold
   only two passes and their median would not repeat. BO at 1024 keeps
   plain BO past capacity (and is still most of a pass). *)
let collapse c ~size ~seed =
  let duration = 500_000 in
  let threads = match size with Full -> [ 64; 1024; 2048 ] | Tiny -> [ 64 ] in
  List.iter
    (fun (e : R.entry) ->
      List.iter
        (fun n ->
          if not (e.name = "BO" && n = 2048) then begin
            let key = entry_key ~experiment:"collapse" ~lock:e.name ~threads:n in
            segment c ~layer:"bench" "collapse" (fun () ->
                point c ~layer:"harness" key (fun () ->
                    X.collapse_run e ~topology ~n_threads:n ~duration ~seed)
                |> Option.iter (fun r ->
                       c.p.results <- ("collapse", r) :: c.p.results))
          end)
        threads)
    R.collapse_locks;
  segment c ~layer:"bench" "artifact" (fun () -> emit_and_check c ~seed)

(* Exhaustive exploration of the registry, then the seeded mutants caught
   and shrunk. Exploration has no random input: the seed only rotates the
   order in which the locks are explored. *)
let explore c ~size ~seed =
  let locks =
    match size with
    | Full -> R.all_locks
    | Tiny -> List.filteri (fun i _ -> i < 2) R.all_locks
  in
  let mutants =
    match size with Full -> Mut.all | Tiny -> [ Mut.skip_limit ]
  in
  let rotate l =
    let k = seed mod max 1 (List.length l) in
    List.filteri (fun i _ -> i >= k) l @ List.filteri (fun i _ -> i < k) l
  in
  let exhaustive lock =
    let sc = E.scenario lock in
    let r = E.exhaustive ~preemptions:2 ~budget:10_000 ~prune:true sc in
    c.p.schedules <- c.p.schedules + r.E.schedules;
    c.p.pruned <- c.p.pruned + r.E.pruned;
    (sc, r)
  in
  List.iter
    (fun (e : R.entry) ->
      let key = "explore/" ^ e.name in
      segment c ~layer:"bench" "explore" (fun () ->
          point c ~layer:"numa_check" key (fun () ->
              let _, r = exhaustive e.lock in
              if r.E.failure = None && r.E.exhausted then "clean"
              else if r.E.failure = None then "not exhausted"
              else "caught")
          |> Option.iter (fun v -> check c.refs c.p.failures key (Verdict v))))
    (rotate locks);
  List.iter
    (fun (module L : Cohort.Lock_intf.LOCK) ->
      let key = "mutant/" ^ L.name in
      segment c ~layer:"bench" "mutants" (fun () ->
          point c ~layer:"numa_check" key (fun () ->
              let sc, r = exhaustive (module L) in
              match r.E.failure with
              | None -> "escaped"
              | Some f -> (
                  match E.shrunk_counterexample sc f with
                  | Some _ -> "caught"
                  | None -> "unstable"))
          |> Option.iter (fun v -> check c.refs c.p.failures key (Verdict v))))
    (rotate mutants)

let find = function
  | "paper" -> Some paper
  | "collapse" -> Some collapse
  | "explore" -> Some explore
  | _ -> None
