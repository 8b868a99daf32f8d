(** The full paper line-up as a functor over the memory substrate,
    grouped as in the paper's evaluation, with per-lock configuration
    tweaks (notably the two HBO parameterisations whose instability
    Tables 1-2 demonstrate). The toplevel [include] instantiates it over
    the simulated substrate, preserving the historical sim-specialised
    module; {!Native.Registry} is the same definition over [Nat_mem]. *)

module LI = Cohort.Lock_intf

type entry = {
  name : string;
  lock : (module LI.LOCK);
  tweak : LI.config -> LI.config;
}

type abortable_entry = {
  a_name : string;
  a_lock : (module LI.ABORTABLE_LOCK);
  a_tweak : LI.config -> LI.config;
}

let plain name lock = { name; lock; tweak = Fun.id }

(* Route an entry's lock instances to a trace sink: composed after the
   entry's own tweak so CLIs can turn tracing on without touching any
   experiment signature. *)
let with_trace tr e =
  { e with tweak = (fun cfg -> { (e.tweak cfg) with LI.trace = tr }) }

let with_trace_abortable tr e =
  { e with a_tweak = (fun cfg -> { (e.a_tweak cfg) with LI.trace = tr }) }

(* HBO backoff parameterisations. The defaults in [LI.default] are the
   microbenchmark tuning; the "tuned" preset suits the longer critical
   sections of memcached/malloc but over-sleeps elsewhere. *)
let hbo_micro cfg =
  {
    cfg with
    LI.hbo_local_min = 100;
    hbo_local_max = 2_000;
    hbo_remote_min = 800;
    hbo_remote_max = 50_000;
  }

let hbo_app cfg =
  {
    cfg with
    LI.hbo_local_min = 1_000;
    hbo_local_max = 20_000;
    hbo_remote_min = 20_000;
    hbo_remote_max = 1_500_000;
  }

module type S = sig
  val microbench_locks : entry list
  val abortable_locks : abortable_entry list
  val app_locks : entry list
  val extra_locks : entry list
  val collapse_locks : entry list
  val all_locks : entry list
  val find : string -> entry option
  val find_abortable : string -> abortable_entry option
  val composition_axis : string list
  val compositions : entry list

  module Blk : sig
    module Plain : LI.LOCK
    module Global : LI.GLOBAL
    module Local : LI.LOCAL
  end

  module C_blk_blk : LI.COHORT_LOCK
end

module Make (M : Numa_base.Memory_intf.MEMORY) = struct
  module Bo = Cohort.Bo_lock.Make (M)
  module Tkt = Cohort.Ticket_lock.Make (M)
  module Mcs = Cohort.Mcs_lock.Make (M)
  module Clh = Cohort.Clh_lock.Make (M)
  module C_bo_bo = Cohort.Cohort_locks.C_bo_bo (M)
  module C_tkt_tkt = Cohort.Cohort_locks.C_tkt_tkt (M)
  module C_bo_mcs = Cohort.Cohort_locks.C_bo_mcs (M)
  module C_tkt_mcs = Cohort.Cohort_locks.C_tkt_mcs (M)
  module C_mcs_mcs = Cohort.Cohort_locks.C_mcs_mcs (M)
  module Aclh = Cohort.Aclh_lock.Make (M)
  module A_c_bo_bo = Cohort.A_c_bo_bo.Make (M)
  module A_c_bo_clh = Cohort.A_c_bo_clh.Make (M)
  module Hbo = Baselines.Hbo_lock.Make (M)
  module Hclh = Baselines.Hclh_lock.Make (M)
  module Hclh_full = Baselines.Hclh_full.Make (M)
  module Fcmcs = Baselines.Fc_mcs.Make (M)
  module Fibbo = Baselines.Fib_bo.Make (M)
  module Pthread = Baselines.Pthread_like.Make (M)
  module Cna = Cohort.Cna_lock.Make (M)
  module Ptl = Cohort.Ptl_lock.Make (M)
  module Gcr_bo = Cohort.Gcr_lock.Wrap (M) (Bo.Plain)
  module Gcr_mcs = Cohort.Gcr_lock.Wrap (M) (Mcs.Plain)
  module Gcr_c_bo_mcs = Cohort.Gcr_lock.Wrap (M) (C_bo_mcs)

  (* The Figure 2-5 line-up, in the paper's legend order, followed by
     the two post-paper successors (CNA, PTL) the repo measures against
     it. Successors append so the paper columns keep their positions. *)
  let microbench_locks : entry list =
    [
      plain "MCS" (module Mcs.Plain);
      { name = "HBO"; lock = (module Hbo.Lock); tweak = hbo_micro };
      plain "HCLH" (module Hclh);
      plain "FC-MCS" (module Fcmcs);
      plain "C-BO-BO" (module C_bo_bo);
      plain "C-TKT-TKT" (module C_tkt_tkt);
      plain "C-BO-MCS" (module C_bo_mcs);
      plain "C-TKT-MCS" (module C_tkt_mcs);
      plain "C-MCS-MCS" (module C_mcs_mcs);
      plain "CNA" (module Cna.Plain);
      plain "PTL" (module Ptl.Plain);
    ]

  (* The Figure 6 line-up. *)
  let abortable_locks : abortable_entry list =
    [
      { a_name = "A-CLH"; a_lock = (module Aclh.Abortable); a_tweak = Fun.id };
      { a_name = "A-HBO"; a_lock = (module Hbo.Abortable); a_tweak = hbo_micro };
      { a_name = "A-C-BO-BO"; a_lock = (module A_c_bo_bo); a_tweak = Fun.id };
      { a_name = "A-C-BO-CLH"; a_lock = (module A_c_bo_clh); a_tweak = Fun.id };
    ]

  (* The Table 1/2 line-up (pthread is the normalisation baseline and the
     first column). *)
  let app_locks : entry list =
    [
      plain "pthread" (module Pthread);
      plain "Fib-BO" (module Fibbo);
      plain "MCS" (module Mcs.Plain);
      { name = "HBO"; lock = (module Hbo.Lock); tweak = hbo_micro };
      { name = "HBO (tuned)"; lock = (module Hbo.Lock); tweak = hbo_app };
      plain "FC-MCS" (module Fcmcs);
      plain "C-BO-BO" (module C_bo_bo);
      plain "C-TKT-TKT" (module C_tkt_tkt);
      plain "C-BO-MCS" (module C_bo_mcs);
      plain "C-TKT-MCS" (module C_tkt_mcs);
      plain "C-MCS-MCS" (module C_mcs_mcs);
      plain "CNA" (module Cna.Plain);
      plain "PTL" (module Ptl.Plain);
    ]

  let extra_locks : entry list =
    [ plain "BO" (module Bo.Plain); plain "TKT" (module Tkt.Plain);
      plain "CLH" (module Clh.Plain); plain "HCLH-full" (module Hclh_full) ]

  (* The saturation-collapse line-up (see the [collapse] experiment):
     plain locks that collapse past capacity, their GCR-wrapped
     counterparts, and the cohort reference. *)
  let collapse_locks : entry list =
    [
      plain "BO" (module Bo.Plain);
      plain "TKT" (module Tkt.Plain);
      plain "MCS" (module Mcs.Plain);
      plain "C-BO-MCS" (module C_bo_mcs);
      plain "GCR-BO" (module Gcr_bo);
      plain "GCR-MCS" (module Gcr_mcs);
      plain "GCR-C-BO-MCS" (module Gcr_c_bo_mcs);
    ]

  let all_locks : entry list =
    let seen = Hashtbl.create 16 in
    List.filter
      (fun e ->
        if Hashtbl.mem seen e.name then false
        else begin
          Hashtbl.add seen e.name ();
          true
        end)
      (microbench_locks @ app_locks @ extra_locks @ collapse_locks)

  let find name = List.find_opt (fun e -> e.name = name) all_locks

  let find_abortable name =
    List.find_opt (fun e -> e.a_name = name) abortable_locks

  (* The generality claim: every thread-oblivious global lock composes
     with every cohort-detecting local lock through the one Cohorting
     transformation, with no per-pair code. *)
  let axis : (string * (module LI.GLOBAL) * (module LI.LOCAL)) list =
    [
      ("BO", (module Bo.Global), (module Bo.Local));
      ("TKT", (module Tkt.Global), (module Tkt.Local));
      ("MCS", (module Mcs.Global), (module Mcs.Local));
      ("CLH", (module Clh.Global), (module Clh.Local));
    ]

  let composition_axis = List.map (fun (n, _, _) -> n) axis

  let compositions =
    List.concat_map
      (fun (g, (module G : LI.GLOBAL), _) ->
        List.map
          (fun (l, _, (module L : LI.LOCAL)) ->
            let name = Printf.sprintf "C-%s-%s" g l in
            let module C =
              Cohort.Cohorting.Make
                (struct
                  let name = name
                end)
                (M)
                (G)
                (L)
            in
            plain name (module C))
          axis)
      axis

  module Blk = Cohort.Park_lock.Make (M)
  module C_blk_blk = Cohort.Cohort_locks.C_blk_blk (M)
end

include Make (Numasim.Sim_mem)
