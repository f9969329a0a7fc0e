open Helpers
module Sim = Netsim.Sim

let test_initial_state () =
  let s = Sim.create () in
  Alcotest.(check (float 0.0)) "time 0" 0.0 (Sim.now s);
  check_int "no events" 0 (Sim.pending s);
  check_bool "step on empty" false (Sim.step s)

let test_time_ordering () =
  let s = Sim.create () in
  let log = ref [] in
  Sim.schedule s ~delay:3.0 (fun () -> log := 3 :: !log);
  Sim.schedule s ~delay:1.0 (fun () -> log := 1 :: !log);
  Sim.schedule s ~delay:2.0 (fun () -> log := 2 :: !log);
  Sim.run s;
  Alcotest.(check (list int)) "chronological" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check (float 0.0)) "final time" 3.0 (Sim.now s)

let test_fifo_tie_break () =
  let s = Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Sim.schedule s ~delay:1.0 (fun () -> log := i :: !log)
  done;
  Sim.run s;
  Alcotest.(check (list int)) "insertion order at equal times" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_nested_scheduling () =
  let s = Sim.create () in
  let log = ref [] in
  Sim.schedule s ~delay:1.0 (fun () ->
      log := "a" :: !log;
      Sim.schedule s ~delay:0.5 (fun () -> log := "b" :: !log));
  Sim.schedule s ~delay:2.0 (fun () -> log := "c" :: !log);
  Sim.run s;
  Alcotest.(check (list string)) "interleaved" [ "a"; "b"; "c" ] (List.rev !log)

let test_zero_delay () =
  let s = Sim.create () in
  let fired = ref false in
  Sim.schedule s ~delay:0.0 (fun () -> fired := true);
  Sim.run s;
  check_bool "fires" true !fired

let test_negative_delay_rejected () =
  let s = Sim.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Sim.schedule: negative delay") (fun () ->
      Sim.schedule s ~delay:(-1.0) (fun () -> ()))

(* NaN compares false with every time, so a NaN event would sit in a
   bucket no window serves and [run] would never return: every entry
   point rejects it and queues nothing *)
let nan_rejected expected f () =
  let s = Sim.create () in
  Sim.set_message_handler s ~publish:ignore (fun ~src:_ ~dst:_ ~tag:_ ~payload:_ -> ());
  Alcotest.check_raises expected (Invalid_argument expected) (fun () -> f s);
  check_int "nothing queued" 0 (Sim.pending s);
  Sim.run s;
  check_int "nothing ran" 0 (Sim.events_processed s)

let test_nan_delay_rejected =
  nan_rejected "Sim.schedule: NaN delay" (fun s -> Sim.schedule s ~delay:Float.nan (fun () -> ()))

let test_nan_schedule_at_rejected =
  nan_rejected "Sim.schedule_at: NaN time" (fun s ->
      Sim.schedule_at s ~time:Float.nan (fun () -> ()))

let test_nan_message_time_rejected =
  nan_rejected "Sim.schedule_message: NaN time" (fun s ->
      Sim.schedule_message s ~time:Float.nan ~src:0 ~dst:0 ~tag:0 ~payload:0)

let test_nan_message_delay_rejected =
  nan_rejected "Sim.schedule_message_after: NaN delay" (fun s ->
      Sim.schedule_message_after s ~delay:Float.nan ~src:0 ~dst:0 ~tag:0 ~payload:0)

let test_nan_cell_time_rejected =
  nan_rejected "Sim.schedule_message_cell: NaN time" (fun s ->
      (Sim.time_cell s).(0) <- Float.nan;
      Sim.schedule_message_cell s ~src:0 ~dst:0 ~tag:0 ~payload:0)

(* +infinity has no service window either: the calendar used to file
   it where no window takes it and [run] never returned, while the heap
   fired it last. Every entry point now refuses it on both engines,
   naming itself. So do finite times at or past the horizon
   (bucket_width * 2^52): from year 2^53 on, a year and the next can
   round to the same float, and with 1 or 4 buckets the calendar jumped
   back to 2^60's year forever. The last time below the horizon runs
   with any bucket count and width. *)
let test_infinite_time_rejected () =
  List.iter
    (fun (engine, width, buckets) ->
      let s = Sim.create ~engine ~bucket_width:width ~buckets () in
      Sim.set_message_handler s ~publish:ignore (fun ~src:_ ~dst:_ ~tag:_ ~payload:_ -> ());
      let name = Printf.sprintf "width %g, %d buckets" width buckets in
      let rejects expected f =
        Alcotest.check_raises (name ^ ": " ^ expected) (Invalid_argument expected) (fun () ->
            f ());
        check_int (expected ^ ": nothing queued") 0 (Sim.pending s)
      in
      rejects "Sim.schedule: infinite delay" (fun () ->
          Sim.schedule s ~delay:Float.infinity (fun () -> ()));
      rejects "Sim.schedule_at: infinite time" (fun () ->
          Sim.schedule_at s ~time:Float.infinity (fun () -> ()));
      rejects "Sim.schedule_message: infinite time" (fun () ->
          Sim.schedule_message s ~time:Float.infinity ~src:0 ~dst:0 ~tag:0 ~payload:0);
      rejects "Sim.schedule_message_after: infinite delay" (fun () ->
          Sim.schedule_message_after s ~delay:Float.infinity ~src:0 ~dst:0 ~tag:0 ~payload:0);
      rejects "Sim.schedule_message_cell: infinite time" (fun () ->
          (Sim.time_cell s).(0) <- Float.infinity;
          Sim.schedule_message_cell s ~src:0 ~dst:0 ~tag:0 ~payload:0);
      Sim.run s;
      check_int "nothing ran" 0 (Sim.events_processed s);
      let horizon = width *. 0x1p52 in
      rejects "Sim.schedule_at: time beyond the simulator's horizon" (fun () ->
          Sim.schedule_at s ~time:horizon (fun () -> ()));
      rejects "Sim.schedule_at: time beyond the simulator's horizon" (fun () ->
          Sim.schedule_at s ~time:(width *. 0x1p60) (fun () -> ()));
      rejects "Sim.schedule_message: time beyond the simulator's horizon" (fun () ->
          Sim.schedule_message s ~time:1e300 ~src:0 ~dst:0 ~tag:0 ~payload:0);
      (* the last time below the horizon is served, and a delay that
         reaches past the horizon from there is refused *)
      let last = Float.pred horizon in
      Sim.schedule_at s ~time:last (fun () -> ());
      Sim.run s;
      check_int (name ^ ": last time below the horizon runs") 1 (Sim.events_processed s);
      check_bool (name ^ ": clock at it") true (Sim.now s = last);
      rejects "Sim.schedule: delay reaches beyond the simulator's horizon" (fun () ->
          Sim.schedule s ~delay:1e300 (fun () -> ()));
      rejects "Sim.schedule_message_after: delay reaches beyond the simulator's horizon"
        (fun () -> Sim.schedule_message_after s ~delay:1e300 ~src:0 ~dst:0 ~tag:0 ~payload:0);
      Sim.schedule s ~delay:0.0 (fun () -> ());
      Sim.run s;
      check_int "the clock keeps serving" 2 (Sim.events_processed s))
    [
      (Sim.Calendar, 1.0, 512);
      (Sim.Calendar, 1.0, 1);
      (Sim.Calendar, 1.0, 4);
      (Sim.Calendar, 0.7, 1);
      (Sim.Calendar, 0.7, 4);
      (Sim.Calendar, 0.7, 512);
      (Sim.Heap, 1.0, 512);
    ]

let test_schedule_at_past_rejected () =
  let s = Sim.create () in
  Sim.schedule s ~delay:5.0 (fun () -> ());
  Sim.run s;
  Alcotest.check_raises "past" (Invalid_argument "Sim.schedule_at: time is in the past") (fun () ->
      Sim.schedule_at s ~time:1.0 (fun () -> ()))

let test_run_until () =
  let s = Sim.create () in
  let log = ref [] in
  List.iter (fun d -> Sim.schedule s ~delay:d (fun () -> log := d :: !log)) [ 1.0; 2.0; 3.0; 4.0 ];
  Sim.run ~until:2.5 s;
  Alcotest.(check (list (float 0.0))) "only up to 2.5" [ 1.0; 2.0 ] (List.rev !log);
  check_int "rest pending" 2 (Sim.pending s);
  Sim.run s;
  check_int "drained" 0 (Sim.pending s)

let test_events_processed () =
  let s = Sim.create () in
  for _ = 1 to 7 do
    Sim.schedule s ~delay:1.0 (fun () -> ())
  done;
  Sim.run s;
  check_int "count" 7 (Sim.events_processed s)

let test_rng_determinism () =
  let draw seed =
    let s = Sim.create ~seed () in
    Graph_core.Prng.bits64 (Sim.rng s)
  in
  Alcotest.(check int64) "same seed" (draw 9) (draw 9);
  check_bool "different seed" true (draw 9 <> draw 10)

let test_fork_rng_independent () =
  let s = Sim.create () in
  let a = Sim.fork_rng s and b = Sim.fork_rng s in
  check_bool "forks differ" true (Graph_core.Prng.bits64 a <> Graph_core.Prng.bits64 b)

let test_message_handler () =
  let s = Sim.create () in
  let log = ref [] in
  Sim.set_message_handler s ~publish:ignore (fun ~src ~dst ~tag ~payload ->
      log := (src, dst, tag, payload) :: !log);
  Sim.schedule_message s ~time:2.0 ~src:7 ~dst:9 ~tag:3 ~payload:41;
  Sim.schedule_message s ~time:1.0 ~src:1 ~dst:2 ~tag:0 ~payload:0;
  Sim.run s;
  Alcotest.(check (list (pair (pair int int) (pair int int))))
    "messages in time order"
    [ ((1, 2), (0, 0)); ((7, 9), (3, 41)) ]
    (List.rev_map (fun (a, b, c, d) -> ((a, b), (c, d))) !log);
  let again () =
    Sim.set_message_handler s ~publish:ignore (fun ~src:_ ~dst:_ ~tag:_ ~payload:_ -> ())
  in
  Alcotest.check_raises "second handler rejected"
    (Invalid_argument "Sim.set_message_handler: handler already installed") again

let test_message_field_validation () =
  let s = Sim.create () in
  Sim.set_message_handler s ~publish:ignore (fun ~src:_ ~dst:_ ~tag:_ ~payload:_ -> ());
  let reject msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  reject "Sim.schedule_message: src/dst outside [0, 2^31)" (fun () ->
      Sim.schedule_message s ~time:0.0 ~src:(-1) ~dst:0 ~tag:0 ~payload:0);
  reject "Sim.schedule_message: src/dst outside [0, 2^31)" (fun () ->
      Sim.schedule_message s ~time:0.0 ~src:0 ~dst:(1 lsl 31) ~tag:0 ~payload:0);
  reject "Sim.schedule_message: tag outside [0, 4)" (fun () ->
      Sim.schedule_message s ~time:0.0 ~src:0 ~dst:0 ~tag:4 ~payload:0);
  reject "Sim.schedule_message: negative payload" (fun () ->
      Sim.schedule_message s ~time:0.0 ~src:0 ~dst:0 ~tag:0 ~payload:(-1));
  reject "Sim.schedule_message: time is in the past" (fun () ->
      Sim.schedule_message s ~time:(-1.0) ~src:0 ~dst:0 ~tag:0 ~payload:0)

(* Differential harness: replay one random nested timeline on a given
   engine and log every execution. Callbacks reschedule more work, so
   any ordering divergence between engines derails the shared RNG and
   shows up as a different log. Bucket geometry is randomised to hit the
   calendar's rewind and empty-window scan paths, not just the
   monotone-append fast path. *)
let run_workload ~engine ~seed ~bucket_width ~buckets =
  let s = Sim.create ~engine ~bucket_width ~buckets () in
  let rng = Graph_core.Prng.create ~seed in
  let log = Buffer.create 1024 in
  Sim.set_message_handler s ~publish:ignore (fun ~src ~dst ~tag ~payload ->
      Buffer.add_string log
        (Printf.sprintf "m %.17g %d %d %d %d;" (Sim.now s) src dst tag payload));
  let next = ref 0 in
  let rec spawn depth =
    let id = !next in
    incr next;
    let delay = float_of_int (Graph_core.Prng.int rng 400) /. 16.0 in
    match Graph_core.Prng.int rng 3 with
    | 0 ->
        Sim.schedule s ~delay (fun () ->
            Buffer.add_string log (Printf.sprintf "c %.17g %d;" (Sim.now s) id);
            if depth > 0 then
              for _ = 1 to Graph_core.Prng.int rng 3 do
                spawn (depth - 1)
              done)
    | 1 ->
        Sim.schedule_at s
          ~time:(Sim.now s +. delay)
          (fun () ->
            Buffer.add_string log (Printf.sprintf "a %.17g %d;" (Sim.now s) id);
            if depth > 0 then spawn (depth - 1))
    | _ ->
        Sim.schedule_message s
          ~time:(Sim.now s +. delay)
          ~src:(Graph_core.Prng.int rng 1000) ~dst:(Graph_core.Prng.int rng 1000)
          ~tag:(Graph_core.Prng.int rng 4) ~payload:id
  in
  for _ = 1 to 25 do
    spawn 2
  done;
  Sim.run s;
  (Buffer.contents log, Sim.events_processed s, Sim.now s)

let prop_calendar_matches_heap =
  qcheck ~count:60 "calendar engine replays the heap engine's order exactly"
    QCheck2.Gen.(triple (int_bound 100_000) (int_range 1 64) (int_range 2 64))
    (fun (seed, w16, buckets) ->
      let bucket_width = float_of_int w16 /. 16.0 in
      run_workload ~engine:Sim.Heap ~seed ~bucket_width ~buckets
      = run_workload ~engine:Sim.Calendar ~seed ~bucket_width ~buckets)

(* Dense windows: hundreds of messages per calendar window, on a
   quarter-unit time grid so that most share their time with others,
   scheduled out of order into the window being served. This geometry
   drives [cal_sort] past its 16-id insertion cutoff into the quicksort
   partitioning, which the sparse timelines above never reach. *)
let run_dense_windows ~engine ~seed ~bucket_width =
  let s = Sim.create ~engine ~bucket_width ~buckets:4 () in
  let rng = Graph_core.Prng.create ~seed in
  let log = Buffer.create 4096 in
  let budget = ref 1200 in
  let send () =
    decr budget;
    Sim.schedule_message s
      ~time:(Sim.now s +. (float_of_int (Graph_core.Prng.int rng 12) /. 4.0))
      ~src:(Graph_core.Prng.int rng 1000) ~dst:0 ~tag:0 ~payload:!budget
  in
  Sim.set_message_handler s ~publish:ignore (fun ~src ~dst:_ ~tag:_ ~payload ->
      Buffer.add_string log (Printf.sprintf "%.17g %d %d;" (Sim.now s) src payload);
      for _ = 1 to Graph_core.Prng.int rng 3 do
        if !budget > 0 then send ()
      done);
  for _ = 1 to 250 do
    send ()
  done;
  Sim.run s;
  (Buffer.contents log, Sim.events_processed s, Sim.now s)

let prop_dense_windows_match_heap =
  qcheck ~count:25 "dense tied windows: calendar replays the heap's order"
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 3 16))
    (fun (seed, w) ->
      let bucket_width = float_of_int w in
      run_dense_windows ~engine:Sim.Heap ~seed ~bucket_width
      = run_dense_windows ~engine:Sim.Calendar ~seed ~bucket_width)

(* Allocation pin: 1,000 concurrent unit-delay message chains, the
   steady state of a flood round. The clock keeps its box while time
   stands still, event times stay unboxed from [schedule_message_after]
   to the calendar, and each drained bucket's array serves the next
   window, so the run allocates next to nothing. *)
let test_message_path_allocation () =
  let s = Sim.create () in
  Sim.set_message_handler s ~publish:ignore (fun ~src ~dst ~tag ~payload ->
      if payload > 0 then
        Sim.schedule_message_after s ~delay:1.0 ~src ~dst ~tag ~payload:(payload - 1));
  for i = 0 to 999 do
    Sim.schedule_message s ~time:0.0 ~src:i ~dst:i ~tag:0 ~payload:220
  done;
  let w0 = Gc.minor_words () in
  Sim.run s;
  let words = Gc.minor_words () -. w0 in
  let events = Sim.events_processed s in
  check_int "events" 221_000 events;
  let per_event = words /. float_of_int events in
  check_bool
    (Printf.sprintf "%.4f minor words per event (bound 0.1)" per_event)
    true (per_event <= 0.1)

(* Windows at the distribution's cap. Each window (width 16) holds
   exactly [Sim.lane_cap] or [Sim.lane_cap + 1] distinct times, made
   like a congested stream's: j / 0.7 plus whole hops. Sums that meet
   from different (j, m) can differ in the last bit, and then they are
   distinct times. Window 0 mixes +0.0 and -0.0, which tie, and holds
   [lane_cap - 1] or [lane_cap] times, so that a distribution telling
   the two zeros apart would still run there. Every window is scheduled
   out of order through all three kinds of entry point, so each one
   needs a sort: the distribution up to the cap, the quicksort above
   it. Midway, a peek walks the service window over two empty years to
   window 5; out-of-order appends leave its serving buffer unsorted;
   then an insert into window 3 rewinds, filing that unsorted tail back
   into its bucket to be loaded and sorted again. *)
let lane_window_width = 16.0

let lane_window_times y =
  let lo = lane_window_width *. float_of_int y in
  let hi = lo +. lane_window_width in
  let acc = ref [] in
  for j = 0 to 69 do
    let inject = float_of_int j /. 0.7 in
    for m = 0 to 99 do
      let t = inject +. float_of_int m in
      if t >= lo && t < hi then acc := t :: !acc
    done
  done;
  Array.of_list (List.sort_uniq compare !acc)

let run_lane_windows ~engine ~seed =
  let s = Sim.create ~engine ~bucket_width:lane_window_width ~buckets:4 () in
  let rng = Graph_core.Prng.create ~seed in
  let log = Buffer.create 8192 in
  Sim.set_message_handler s ~publish:ignore (fun ~src ~dst ~tag ~payload ->
      Buffer.add_string log (Printf.sprintf "m %.17g %d %d %d %d;" (Sim.now s) src dst tag payload));
  let next = ref 0 in
  let schedule time =
    let id = !next in
    incr next;
    match Graph_core.Prng.int rng 3 with
    | 0 ->
        Sim.schedule_at s ~time (fun () ->
            Buffer.add_string log (Printf.sprintf "c %.17g %d;" (Sim.now s) id))
    | 1 -> Sim.schedule_message s ~time ~src:id ~dst:0 ~tag:0 ~payload:id
    | _ ->
        (Sim.time_cell s).(0) <- time;
        Sim.schedule_message_cell s ~src:id ~dst:1 ~tag:1 ~payload:id
  in
  (* [lane_cap] or [lane_cap + 1] distinct times of window [y], one
     fewer in window 0, which always has 0.0 *)
  let pick y =
    let pool = lane_window_times y in
    Graph_core.Prng.shuffle rng pool;
    let d = Sim.lane_cap + Graph_core.Prng.int rng 2 - if y = 0 then 1 else 0 in
    let ts = Array.sub pool 0 d in
    if y = 0 && not (Array.mem 0.0 ts) then ts.(0) <- 0.0;
    ts
  in
  (* every time once, then [extra] more drawn from them, shuffled *)
  let fill ts extra =
    let d = Array.length ts in
    let evs =
      Array.init (d + extra) (fun i -> if i < d then ts.(i) else ts.(Graph_core.Prng.int rng d))
    in
    Graph_core.Prng.shuffle rng evs;
    Array.iter
      (fun t -> schedule (if t = 0.0 && Graph_core.Prng.bool rng then -0.0 else t))
      evs
  in
  let late = pick 5 in
  List.iter (fun y -> fill (pick y) (Graph_core.Prng.int rng 64)) [ 0; 1; 2; 6 ];
  fill late (Graph_core.Prng.int rng 64);
  (* windows 0-2 run; the peek then stops in window 5 *)
  Sim.run ~until:(3.5 *. lane_window_width) s;
  fill late (1 + Graph_core.Prng.int rng 32);
  fill (pick 3) (Graph_core.Prng.int rng 64);
  Sim.run s;
  (Buffer.contents log, Sim.events_processed s, Sim.now s)

let prop_lane_windows_match_heap =
  qcheck ~count:40 "windows at the lane cap: calendar replays the heap's order"
    QCheck2.Gen.(int_bound 100_000)
    (fun seed -> run_lane_windows ~engine:Sim.Heap ~seed = run_lane_windows ~engine:Sim.Calendar ~seed)

(* The sort's scratch outlives its window, and the two stages grow it
   differently: the distribution swaps its keys with its scatter
   target, the quicksort does not. Five unit windows, each scheduled in
   descending time so that each needs a sort, alternate the two with
   sizes that once left the lane bytes shorter than the fifth window:
   10 keys over 2 times (distributed), 100 over 100 times (quicksort),
   then 8, 30 and 50 keys over 2-4 times (distributed). *)
let run_mixed_windows ~engine =
  let s = Sim.create ~engine () in
  let log = Buffer.create 4096 in
  Sim.set_message_handler s ~publish:ignore (fun ~src ~dst:_ ~tag:_ ~payload ->
      Buffer.add_string log (Printf.sprintf "%.17g %d %d;" (Sim.now s) src payload));
  List.iteri
    (fun y (keys, times) ->
      for i = keys - 1 downto 0 do
        let frac = float_of_int (i mod times) /. float_of_int times in
        Sim.schedule_message s ~time:(float_of_int y +. frac) ~src:y ~dst:0 ~tag:0 ~payload:i
      done)
    [ (10, 2); (100, 100); (8, 2); (30, 3); (50, 4) ];
  Sim.run s;
  (Buffer.contents log, Sim.events_processed s)

let test_mixed_window_sizes () =
  let heap_log, heap_events = run_mixed_windows ~engine:Sim.Heap in
  let cal_log, cal_events = run_mixed_windows ~engine:Sim.Calendar in
  check_int "heap events" 198 heap_events;
  check_int "calendar events" 198 cal_events;
  Alcotest.(check string) "calendar order = heap order" heap_log cal_log

let suite =
  [
    Alcotest.test_case "initial state" `Quick test_initial_state;
    Alcotest.test_case "time ordering" `Quick test_time_ordering;
    Alcotest.test_case "fifo tie break" `Quick test_fifo_tie_break;
    Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
    Alcotest.test_case "zero delay" `Quick test_zero_delay;
    Alcotest.test_case "negative delay rejected" `Quick test_negative_delay_rejected;
    Alcotest.test_case "NaN delay rejected" `Quick test_nan_delay_rejected;
    Alcotest.test_case "schedule_at NaN rejected" `Quick test_nan_schedule_at_rejected;
    Alcotest.test_case "schedule_message NaN rejected" `Quick test_nan_message_time_rejected;
    Alcotest.test_case "schedule_message_after NaN rejected" `Quick test_nan_message_delay_rejected;
    Alcotest.test_case "schedule_message_cell NaN rejected" `Quick test_nan_cell_time_rejected;
    Alcotest.test_case "infinite times rejected on both engines" `Quick
      test_infinite_time_rejected;
    Alcotest.test_case "schedule_at past rejected" `Quick test_schedule_at_past_rejected;
    Alcotest.test_case "run until" `Quick test_run_until;
    Alcotest.test_case "events processed" `Quick test_events_processed;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "fork rng" `Quick test_fork_rng_independent;
    Alcotest.test_case "message handler" `Quick test_message_handler;
    Alcotest.test_case "message field validation" `Quick test_message_field_validation;
    prop_calendar_matches_heap;
    prop_dense_windows_match_heap;
    Alcotest.test_case "message path allocation" `Quick test_message_path_allocation;
    prop_lane_windows_match_heap;
    Alcotest.test_case "mixed window sizes: calendar replays the heap's order" `Quick
      test_mixed_window_sizes;
  ]
