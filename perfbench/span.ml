(* In-memory spans around the benchmark's calls into the repository's
   libraries. Recording is off unless [enabled] is set (the traced run);
   when off, [with_] is a plain call. Spans nest strictly (the benchmark
   is single-threaded), so a span's self time is its duration minus its
   children's durations, and per-layer self times sum to the root span. *)

type t = {
  id : int;
  parent : int;  (** -1 for the root. *)
  name : string;
  layer : string;  (** the library the call enters, or "bench". *)
  start : float;
  mutable stop : float;
  mutable child_s : float;  (** summed duration of direct children. *)
}

let enabled = ref false
let spans : t list ref = ref []
let stack : t list ref = ref []
let next = ref 0

let with_ ~layer name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with p :: _ -> p.id | [] -> -1 in
    let s =
      {
        id = !next;
        parent;
        name;
        layer;
        start = Unix.gettimeofday ();
        stop = nan;
        child_s = 0.;
      }
    in
    incr next;
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- Unix.gettimeofday ();
        stack := List.tl !stack;
        (match !stack with
        | p :: _ -> p.child_s <- p.child_s +. (s.stop -. s.start)
        | [] -> ());
        spans := s :: !spans)
      f
  end

let duration s = s.stop -. s.start
let self s = duration s -. s.child_s

(* Self seconds per layer, over every recorded span. *)
let self_by_layer () =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt tbl s.layer) in
      Hashtbl.replace tbl s.layer (prev +. self s))
    !spans;
  tbl

let roots () = List.filter (fun s -> s.parent < 0) !spans

(* Chrome trace_event JSON ("X" complete events, microseconds), oldest
   span first; load it in chrome://tracing or Perfetto. *)
let write_chrome path =
  let t0 =
    List.fold_left (fun acc s -> Float.min acc s.start) infinity !spans
  in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\
         \"ts\":%.1f,\"dur\":%.1f,\"args\":{\"id\":%d,\"parent\":%d,\
         \"self_us\":%.1f}}\n"
        (if i = 0 then "" else ",")
        s.name s.layer
        ((s.start -. t0) *. 1e6)
        (duration s *. 1e6)
        s.id s.parent (self s *. 1e6))
    (List.rev !spans);
  output_string oc "]}\n";
  close_out oc
