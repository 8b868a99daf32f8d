(* The fixed reference kernel that [wall_rel] divides by.

   It uses the standard library only, so no change to the repository's
   libraries can move it, and it does the same three kinds of work as
   the simulator's hot loop: effect fibers that suspend on every step,
   an array-backed binary min-heap of (time, seq) keys, and short-lived
   allocation. Host slowdowns that hit the simulator (a busy sibling
   core, frequency changes, cache pressure) hit this kernel in the same
   way, so the ratio of the two cancels most of them. *)

type _ Effect.t += Delay : int -> unit Effect.t

(* Min-heap on (time, seq); seq breaks ties in insertion order. *)
type heap = {
  mutable n : int;
  mutable time : int array;
  mutable seq : int array;
  mutable job : (unit -> unit) array;
}

let less h i j =
  h.time.(i) < h.time.(j) || (h.time.(i) = h.time.(j) && h.seq.(i) < h.seq.(j))

let swap h i j =
  let t = h.time.(i) and s = h.seq.(i) and k = h.job.(i) in
  h.time.(i) <- h.time.(j);
  h.seq.(i) <- h.seq.(j);
  h.job.(i) <- h.job.(j);
  h.time.(j) <- t;
  h.seq.(j) <- s;
  h.job.(j) <- k

let push h ~time ~seq job =
  if h.n = Array.length h.time then begin
    let grow a fill =
      let b = Array.make (2 * h.n) fill in
      Array.blit a 0 b 0 h.n;
      b
    in
    h.time <- grow h.time 0;
    h.seq <- grow h.seq 0;
    h.job <- grow h.job ignore
  end;
  let i = h.n in
  h.time.(i) <- time;
  h.seq.(i) <- seq;
  h.job.(i) <- job;
  h.n <- h.n + 1;
  let rec up i =
    let p = (i - 1) / 2 in
    if i > 0 && less h i p then begin
      swap h i p;
      up p
    end
  in
  up i

let pop h =
  let time = h.time.(0) and job = h.job.(0) in
  h.n <- h.n - 1;
  swap h 0 h.n;
  h.job.(h.n) <- ignore;
  let rec down i =
    let l = (2 * i) + 1 in
    let r = l + 1 in
    let m = if l < h.n && less h l i then l else i in
    let m = if r < h.n && less h r m then r else m in
    if m <> i then begin
      swap h i m;
      down m
    end
  in
  down 0;
  (time, job)

(* Shared state the fibers update at random: 16 MB, larger than the
   host's caches like the simulator's own heap, but outside the OCaml
   heap so it does not show in the workloads' heap metrics. *)
let table =
  lazy
    (let t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 21) in
     Bigarray.Array1.fill t 0;
     t)

(* [fibers] fibers each take [steps] steps; a step updates a random word
   of [table], allocates a short list, folds it and suspends for a
   pseudo-random delay. Returns a checksum so the work cannot be
   optimised away. *)
let run ~fibers ~steps =
  let table = Lazy.force table in
  let mask = Bigarray.Array1.dim table - 1 in
  let h =
    {
      n = 0;
      time = Array.make 64 0;
      seq = Array.make 64 0;
      job = Array.make 64 ignore;
    }
  in
  let now = ref 0 and seq = ref 0 and sum = ref 0 in
  let schedule at job =
    incr seq;
    push h ~time:at ~seq:!seq job
  in
  let body id () =
    let x = ref (id + 1) in
    for _ = 1 to steps do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      let l = List.init 8 (fun i -> (!x lsr i) land 0xff) in
      let i = !x land mask in
      table.{i} <- table.{i} + 1;
      sum := !sum + List.fold_left ( + ) 0 l;
      Effect.perform (Delay (1 + (!x land 1023)))
    done
  in
  let handler =
    {
      Effect.Deep.retc = ignore;
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Delay d ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  schedule (!now + d) (fun () -> Effect.Deep.continue k ()))
          | _ -> None);
    }
  in
  for id = 0 to fibers - 1 do
    schedule id (fun () -> Effect.Deep.match_with (body id) () handler)
  done;
  while h.n > 0 do
    let t, job = pop h in
    now := t;
    job ()
  done;
  !sum

(* One slice: a fixed amount of work, timed after a full major GC so the
   collector's debt from the preceding workload segment is not billed
   to it. Returns seconds. *)
let time_slice ~fibers ~steps =
  Gc.full_major ();
  ignore (Lazy.force table);
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (run ~fibers ~steps));
  Unix.gettimeofday () -. t0
