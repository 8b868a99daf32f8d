(* The 16-composition matrix: every global x local pairing must be a
   correct lock, including the 11 the paper never names. *)

open Numa_base
module E = Numasim.Engine
module M = Numasim.Sim_mem
module LI = Cohort.Lock_intf
module R = Harness.Lock_registry

let all =
  List.map (fun (e : R.entry) -> (e.name, e.lock)) R.compositions

let topo = Topology.small
let cfg = { LI.default with LI.clusters = topo.Topology.clusters }

let me_test (name, (module L : LI.LOCK)) =
  Alcotest.test_case name `Quick (fun () ->
      let l = L.create cfg in
      let in_cs = ref 0 in
      let violations = ref 0 in
      let total = ref 0 in
      ignore
        (E.run ~topology:topo ~n_threads:8 (fun ~tid ~cluster ->
             let rng = Prng.create (tid + 3) in
             let th = L.register l ~tid ~cluster in
             for _ = 1 to 40 do
               L.acquire th;
               incr in_cs;
               if !in_cs <> 1 then incr violations;
               M.pause (20 + Prng.int rng 150);
               if !in_cs <> 1 then incr violations;
               incr total;
               decr in_cs;
               L.release th;
               M.pause (Prng.int rng 300)
             done));
      Alcotest.(check int) (name ^ ": no violations") 0 !violations;
      Alcotest.(check int) (name ^ ": progress") 320 !total)

let test_matrix_shape () =
  Alcotest.(check int) "16 compositions" 16 (List.length all);
  let names = List.map fst all in
  Alcotest.(check int) "unique names" 16
    (List.length (List.sort_uniq compare names));
  (* The paper's five named locks are all present. *)
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " present") true (List.mem n names))
    [ "C-BO-BO"; "C-TKT-TKT"; "C-BO-MCS"; "C-TKT-MCS"; "C-MCS-MCS" ]

(* Row-major, globals outer: the matrix experiment slices rows by this. *)
let test_matrix_get () =
  let axis = R.composition_axis in
  Alcotest.(check (list string))
    "lookup by axes"
    (List.concat_map (fun g -> List.map (fun l -> "C-" ^ g ^ "-" ^ l) axis) axis)
    (List.map (fun (_, (module L : LI.LOCK)) -> L.name) all)

(* Every composition batches: with two clusters contending, migrations
   stay well below acquisitions. *)
let batching_test (name, (module L : LI.LOCK)) =
  Alcotest.test_case name `Quick (fun () ->
      let l = L.create cfg in
      let migs = ref 0 in
      let acqs = ref 0 in
      let last = ref (-1) in
      ignore
        (E.run ~topology:topo ~n_threads:8 (fun ~tid ~cluster ->
             let th = L.register l ~tid ~cluster in
             for _ = 1 to 50 do
               L.acquire th;
               incr acqs;
               if !last <> cluster then begin
                 incr migs;
                 last := cluster
               end;
               M.pause 80;
               L.release th;
               M.pause 120
             done));
      Alcotest.(check bool)
        (Printf.sprintf "%s batches (%d migrations / %d)" name !migs !acqs)
        true
        (!migs * 3 < !acqs))

let suite =
  [
    ( "structure",
      [
        Alcotest.test_case "shape" `Quick test_matrix_shape;
        Alcotest.test_case "get" `Quick test_matrix_get;
      ] );
    ("mutual_exclusion", List.map me_test all);
    ("batching", List.map batching_test all);
  ]

let () = Alcotest.run "matrix" suite
