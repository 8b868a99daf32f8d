(** The full paper line-up of locks, grouped as in the paper's
    evaluation, with per-lock configuration tweaks (notably the two HBO
    parameterisations whose instability Tables 1-2 demonstrate).

    Entries carry first-class [LI.LOCK] modules, which are
    substrate-neutral: the lists exist for any memory substrate through
    {!Make}, from one definition. The toplevel values are the simulated
    instantiation (the historical interface every experiment uses);
    {!Native.Registry} is the native one. *)

module LI = Cohort.Lock_intf

type entry = {
  name : string;  (** display name; may differ from the module's. *)
  lock : (module LI.LOCK);
  tweak : LI.config -> LI.config;  (** per-lock config adjustment. *)
}

type abortable_entry = {
  a_name : string;
  a_lock : (module LI.ABORTABLE_LOCK);
  a_tweak : LI.config -> LI.config;
}

val plain : string -> (module LI.LOCK) -> entry
(** An entry with no config tweak. *)

val with_trace : Numa_trace.Sink.t -> entry -> entry
(** Route the entry's lock instances to a trace sink (composed after the
    entry's own tweak), so CLIs can enable tracing without changing any
    experiment signature. *)

val with_trace_abortable : Numa_trace.Sink.t -> abortable_entry -> abortable_entry

val hbo_micro : LI.config -> LI.config
(** HBO backoff parameters tuned for the LBench microbenchmark (the
    paper's "HBO" column). *)

val hbo_app : LI.config -> LI.config
(** HBO backoff parameters tuned for application-length critical
    sections (the paper's "HBO (tuned)" column). *)

(** What a registry instantiation provides. *)
module type S = sig
  val microbench_locks : entry list
  (** The Figure 2-5 line-up, in the paper's legend order (9 locks). *)

  val abortable_locks : abortable_entry list
  (** The Figure 6 line-up (4 locks). *)

  val app_locks : entry list
  (** The Table 1/2 line-up (11 locks; pthread first, as the
      normalisation baseline). *)

  val extra_locks : entry list
  (** Locks outside the paper's evaluation line-ups (plain BO/TKT/CLH). *)

  val collapse_locks : entry list
  (** The saturation-collapse line-up: plain BO/TKT/MCS (which collapse
      past capacity), their GCR-wrapped counterparts and the C-BO-MCS
      reference (7 locks; see the [collapse] experiment). *)

  val all_locks : entry list
  (** Every entry, deduplicated by name. *)

  val find : string -> entry option
  val find_abortable : string -> abortable_entry option

  val composition_axis : string list
  (** ["BO"; "TKT"; "MCS"; "CLH"]: the locks usable both as the global
      and as the local level of a cohort lock. *)

  val compositions : entry list
  (** Every global x local pairing over {!composition_axis} built by
      {!Cohort.Cohorting.Make} — 16 NUMA-aware locks named
      ["C-<global>-<local>"], row-major (globals outer), of which the
      paper names five. Kept out of {!all_locks}. *)

  (** Direct instantiations needed by extension experiments. *)

  module Blk : sig
    module Plain : LI.LOCK
    module Global : LI.GLOBAL
    module Local : LI.LOCAL
  end

  module C_blk_blk : LI.COHORT_LOCK
end

module Make (M : Numa_base.Memory_intf.MEMORY) : S
(** Instantiate the whole line-up over a memory substrate. *)

include S
(** The simulated-substrate registry. *)
