(* In-memory span recorder for the traced mode.

   Each span keeps its name, start and end on the monotonic clock, the
   span it ran under, the run it belongs to, and the minor words and
   major collections the GC counted while it was open. Minor words come
   from [Gc.minor_words], which unlike [Gc.quick_stat] on OCaml 5 also
   counts the words in the current minor heap. Nothing is
   written until the run ends ({!write_chrome}). *)

let now_ns () = Monotonic_clock.now ()
let seconds_since ns = Int64.to_float (Int64.sub (now_ns ()) ns) /. 1e9

type span = {
  id : int;
  name : string;
  parent : int option;
  start_ns : int64;
  stop_ns : int64;
  minor_words : float;
  major_gcs : int;
}

type t = { run : string; mutable next : int; mutable stack : int list; mutable done_ : span list }

let create ~run = { run; next = 0; stack = []; done_ = [] }

let span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> Some p | [] -> None in
  t.stack <- id :: t.stack;
  let w0 = Gc.minor_words () and g0 = Gc.quick_stat () in
  let start_ns = now_ns () in
  let finish () =
    let stop_ns = now_ns () in
    let w1 = Gc.minor_words () and g1 = Gc.quick_stat () in
    t.stack <- List.tl t.stack;
    t.done_ <-
      {
        id;
        name;
        parent;
        start_ns;
        stop_ns;
        minor_words = w1 -. w0;
        major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
      }
      :: t.done_
  in
  Fun.protect ~finally:finish f

let spans t = List.rev t.done_
let duration s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) /. 1e9

let named t name = List.filter (fun s -> s.name = name) (spans t)
let total t name = List.fold_left (fun a s -> a +. duration s) 0.0 (named t name)
let longest t name = List.fold_left (fun a s -> Float.max a (duration s)) 0.0 (named t name)

let minor_mwords t name =
  List.fold_left (fun a s -> a +. s.minor_words) 0.0 (named t name) /. 1e6

let major_gcs t name = List.fold_left (fun a s -> a + s.major_gcs) 0 (named t name)

let to_stats s =
  {
    Stats.id = s.id;
    parent = s.parent;
    start = Int64.to_float s.start_ns /. 1e9;
    stop = Int64.to_float s.stop_ns /. 1e9;
  }

let self_time t s = Stats.self_time (List.map to_stats (spans t)) (to_stats s)

(* Chrome trace-event JSON: one complete ("X") event per span, times
   in microseconds from the first span's start. *)
let write_chrome t path =
  let spans = spans t in
  let origin = List.fold_left (fun a s -> min a s.start_ns) Int64.max_int spans in
  let us ns = Int64.to_float (Int64.sub ns origin) /. 1e3 in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \
         \"args\": {\"run\": \"%s\", \"id\": %d, \"parent\": %s, \"self_us\": %.3f, \
         \"minor_words\": %.0f, \"major_gcs\": %d}}"
        (Obs.Export.escape s.name) (us s.start_ns)
        (us s.stop_ns -. us s.start_ns)
        (Obs.Export.escape t.run) s.id
        (match s.parent with Some p -> string_of_int p | None -> "null")
        (self_time t s *. 1e6) s.minor_words s.major_gcs)
    spans;
  Buffer.add_string b "\n]}\n";
  Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc b)
