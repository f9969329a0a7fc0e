(* Obs.Registry and Obs.Export: metric semantics, the disabled path,
   percentiles, the event ring, and exporter well-formedness. *)

module Csr = Graph_core.Csr

module R = Obs.Registry

let test_counter_basics () =
  let r = R.create () in
  let c = R.counter r "a" in
  R.incr c;
  R.incr c;
  R.add c 5;
  Alcotest.(check int) "value" 7 (R.counter_value c);
  (* same name -> same counter *)
  let c' = R.counter r "a" in
  R.incr c';
  Alcotest.(check int) "shared" 8 (R.counter_value c);
  Alcotest.(check int) "one registration" 1 (List.length (R.counters r))

let test_gauge_semantics () =
  let r = R.create () in
  let g = R.gauge r "g" in
  R.set g 3.0;
  R.set g 1.5;
  Alcotest.(check (float 0.0)) "last write wins" 1.5 (R.gauge_value g);
  R.set_max g 4.0;
  R.set_max g 2.0;
  Alcotest.(check (float 0.0)) "running max" 4.0 (R.gauge_value g)

let test_type_clash_rejected () =
  let r = R.create () in
  ignore (R.counter r "x");
  Alcotest.check_raises "gauge over counter"
    (Invalid_argument "Registry: x is registered with another metric type") (fun () ->
      ignore (R.gauge r "x"))

let test_histogram_percentiles () =
  let r = R.create () in
  let h = R.histogram r "h" ~bounds:R.hop_bounds in
  (* 100 observations at hop values 1..100 clamp into 0..63 + overflow *)
  for i = 1 to 100 do
    R.observe h (float_of_int i)
  done;
  Alcotest.(check int) "count" 100 (R.histogram_count h);
  Alcotest.(check (float 0.0)) "p50" 50.0 (R.percentile h 0.50);
  Alcotest.(check (float 0.0)) "p0 = min bucket" 1.0 (R.percentile h 0.0);
  (* overflow observations report the last finite bound *)
  Alcotest.(check (float 0.0)) "p100 hits overflow" 63.0 (R.percentile h 1.0);
  let empty = R.histogram r "h2" ~bounds:R.hop_bounds in
  Alcotest.(check (float 0.0)) "empty histogram" 0.0 (R.percentile empty 0.5)

let test_histogram_bad_bounds () =
  let r = R.create () in
  Alcotest.check_raises "empty bounds"
    (Invalid_argument "Registry.histogram: empty bounds") (fun () ->
      ignore (R.histogram r "e" ~bounds:[||]));
  Alcotest.check_raises "non-increasing"
    (Invalid_argument "Registry.histogram: bounds must be strictly increasing") (fun () ->
      ignore (R.histogram r "ni" ~bounds:[| 1.0; 1.0 |]))

let test_disabled_registry_is_inert () =
  let r = R.nil in
  let c = R.counter r "dead" in
  R.incr c;
  R.add c 10;
  let g = R.gauge r "deadg" in
  R.set g 5.0;
  let h = R.histogram r "deadh" ~bounds:R.hop_bounds in
  R.observe h 3.0;
  R.event r R.Crash ~node:1 ~info:0;
  (* nothing registers, nothing retains *)
  Alcotest.(check int) "no counters" 0 (List.length (R.counters r));
  Alcotest.(check int) "no gauges" 0 (List.length (R.gauges r));
  Alcotest.(check int) "no histograms" 0 (List.length (R.histograms r));
  Alcotest.(check int) "no events" 0 (R.events_recorded r);
  Alcotest.(check bool) "disabled" false (R.enabled r)

let test_event_ring_eviction () =
  let r = R.create ~event_capacity:4 () in
  for i = 1 to 10 do
    R.event_at r ~at:(float_of_int i) R.Round_start ~node:i ~info:i
  done;
  Alcotest.(check int) "recorded" 10 (R.events_recorded r);
  Alcotest.(check int) "dropped" 6 (R.events_dropped r);
  let evs = R.events r in
  Alcotest.(check int) "retained" 4 (List.length evs);
  Alcotest.(check int) "oldest retained" 7 (List.hd evs).R.node;
  (* per-kind totals survive eviction *)
  Alcotest.(check int) "kind count" 10 (R.event_kind_count r R.Round_start)

let test_clock_shared_with_sim () =
  let r = R.create () in
  let sim = Netsim.Sim.create ~obs:r () in
  Netsim.Sim.schedule_at sim ~time:7.5 (fun () -> R.event r R.Crash ~node:0 ~info:0);
  Netsim.Sim.run sim;
  match R.events r with
  | [ ev ] -> Alcotest.(check (float 1e-9)) "stamped with sim clock" 7.5 ev.R.at
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

let test_clear_keeps_registrations () =
  let r = R.create () in
  let c = R.counter r "c" in
  R.incr c;
  let h = R.histogram r "h" ~bounds:R.hop_bounds in
  R.observe h 1.0;
  R.event r R.Crash ~node:0 ~info:0;
  R.clear r;
  Alcotest.(check int) "counter reset" 0 (R.counter_value c);
  Alcotest.(check int) "histogram reset" 0 (R.histogram_count h);
  Alcotest.(check int) "events reset" 0 (R.events_recorded r);
  Alcotest.(check int) "registrations kept" 1 (List.length (R.counters r));
  R.incr c;
  Alcotest.(check int) "still live" 1 (R.counter_value c)

(* A tiny structural JSON validator: balanced braces/brackets outside
   strings — catches the usual hand-rolled-emitter mistakes (trailing
   commas are caught by the CI python parse; here we check nesting). *)
let check_balanced s =
  let depth = ref 0 and in_string = ref false and escaped = ref false in
  String.iter
    (fun ch ->
      if !escaped then escaped := false
      else if !in_string then begin
        if ch = '\\' then escaped := true else if ch = '"' then in_string := false
      end
      else
        match ch with
        | '"' -> in_string := true
        | '{' | '[' -> incr depth
        | '}' | ']' -> decr depth
        | _ -> ())
    s;
  Alcotest.(check int) "balanced json nesting" 0 !depth;
  Alcotest.(check bool) "string closed" false !in_string

let test_export_json_structure () =
  let r = R.create () in
  let g = (Lhg_core.Build.kdiamond_exn ~n:22 ~k:3).Lhg_core.Build.graph in
  ignore (Flood.Flooding.run_csr_env ~env:(Flood.Env.make ~obs:r ()) ~csr:(Csr.of_graph g) ~source:0 ());
  let doc = Obs.Export.to_json ~recent_events:4 r in
  check_balanced doc;
  let has needle =
    Alcotest.(check bool) (Printf.sprintf "contains %s" needle) true
      (let nl = String.length needle and dl = String.length doc in
       let rec go i = i + nl <= dl && (String.sub doc i nl = needle || go (i + 1)) in
       go 0)
  in
  has "\"schema\": \"lhg-obs/1\"";
  has "\"net.sent\"";
  has "\"flood.rounds\"";
  has "\"flood.completion\"";
  has "\"p95\"";
  has "\"round-start\"";
  (* the text exporter covers the same registry without raising *)
  let txt = Obs.Export.to_text ~recent_events:4 r in
  Alcotest.(check bool) "text non-empty" true (String.length txt > 0)

let test_runner_percentiles () =
  let g = (Lhg_core.Build.kdiamond_exn ~n:30 ~k:3).Lhg_core.Build.graph in
  (* the env path collects hop_counts only into an enabled registry *)
  let a =
    Flood.Runner.flood_trials_env
      ~env:(Flood.Env.make ~seed:3 ~obs:(Obs.Registry.create ()) ())
      ~csr:(Csr.of_graph g) ~source:0 ~crash_count:0 ~trials:9 ()
  in
  (* failure-free deterministic flooding: every trial identical *)
  Alcotest.(check (float 1e-9)) "p50 = mean" a.Flood.Runner.mean_completion
    a.Flood.Runner.p50_completion;
  Alcotest.(check (float 1e-9)) "p99 = p50" a.Flood.Runner.p50_completion
    a.Flood.Runner.p99_completion;
  Alcotest.(check bool) "hop histogram populated" true
    (Array.length a.Flood.Runner.hop_counts > 0);
  Alcotest.(check int) "hop counts sum to deliveries" (9 * 30)
    (Array.fold_left ( + ) 0 a.Flood.Runner.hop_counts);
  (* a disabled caller-supplied registry suppresses hop collection *)
  let a' =
    Flood.Runner.flood_trials_env ~env:(Flood.Env.make ~obs:Obs.Registry.nil ~seed:3 ()) ~csr:(Csr.of_graph g) ~source:0 ~crash_count:0 ~trials:3 ()
  in
  Alcotest.(check int) "disabled -> no hop histogram" 0 (Array.length a'.Flood.Runner.hop_counts)

(* merge: the per-domain-registries -> one-export path *)

let test_merge_counters_gauges_histograms () =
  let a = R.create () and b = R.create () in
  R.add (R.counter a "hits") 3;
  R.add (R.counter b "hits") 4;
  R.add (R.counter b "only_b") 9;
  R.set (R.gauge a "peak") 2.5;
  R.set (R.gauge b "peak") 1.5;
  let bounds = R.linear_bounds ~lo:0.0 ~step:1.0 ~count:4 in
  let ha = R.histogram a "lat" ~bounds and hb = R.histogram b "lat" ~bounds in
  R.observe ha 0.5;
  R.observe hb 1.5;
  R.observe hb 100.0;
  R.merge a b;
  Alcotest.(check int) "counters add" 7 (R.counter_value (R.counter a "hits"));
  Alcotest.(check int) "missing counters appear" 9 (R.counter_value (R.counter a "only_b"));
  Alcotest.(check (float 1e-9)) "gauges keep max" 2.5 (R.gauge_value (R.gauge a "peak"));
  Alcotest.(check int) "histogram totals add" 3 (R.histogram_count ha);
  Alcotest.(check (float 1e-9)) "histogram sums add" 102.0 (R.histogram_sum ha);
  let counts = R.histogram_counts ha in
  Alcotest.(check int) "bucket 0.5" 1 counts.(1);
  Alcotest.(check int) "overflow bucket" 1 counts.(Array.length counts - 1);
  (* src unchanged *)
  Alcotest.(check int) "src counter untouched" 4 (R.counter_value (R.counter b "hits"));
  Alcotest.(check int) "src histogram untouched" 2 (R.histogram_count hb)

let test_merge_events_and_kind_counts () =
  let a = R.create () and b = R.create () in
  R.event_at a ~at:1.0 R.Crash ~node:1 ~info:0;
  R.event_at b ~at:2.0 R.Crash ~node:2 ~info:0;
  R.event_at b ~at:3.0 R.Retransmit ~node:3 ~info:7;
  R.merge a b;
  Alcotest.(check int) "crash total" 2 (R.event_kind_count a R.Crash);
  Alcotest.(check int) "retransmit total" 1 (R.event_kind_count a R.Retransmit);
  let times = List.map (fun e -> e.R.at) (R.events a) in
  Alcotest.(check (list (float 1e-9))) "timestamps preserved" [ 1.0; 2.0; 3.0 ] times

let test_merge_mismatched_histogram_rejected () =
  let a = R.create () and b = R.create () in
  ignore (R.histogram a "lat" ~bounds:(R.linear_bounds ~lo:0.0 ~step:1.0 ~count:4));
  ignore (R.histogram b "lat" ~bounds:(R.linear_bounds ~lo:0.0 ~step:2.0 ~count:4));
  R.observe (R.histogram b "lat" ~bounds:(R.linear_bounds ~lo:0.0 ~step:2.0 ~count:4)) 1.0;
  Alcotest.check_raises "different bound values"
    (Invalid_argument "Registry.merge: lat exists with different bounds") (fun () ->
      R.merge a b)

let test_merge_disabled_is_noop () =
  let a = R.create () and b = R.create () in
  R.add (R.counter b "x") 5;
  R.merge R.nil b;
  R.merge a R.nil;
  R.merge a a;
  Alcotest.(check (list int)) "dst stayed empty" []
    (List.map R.counter_value (R.counters a))

let test_merge_folds_per_domain_registries () =
  (* the intended parallel-run shape: one registry per domain, one
     merged export *)
  let shards = Array.init 4 (fun i ->
      let r = R.create () in
      R.add (R.counter r "reliability.successes") (10 + i);
      R.observe (R.histogram r "rounds" ~bounds:R.hop_bounds) (float_of_int i);
      r)
  in
  let total = R.create () in
  Array.iter (fun r -> R.merge total r) shards;
  Alcotest.(check int) "counter folded" (10 + 11 + 12 + 13)
    (R.counter_value (R.counter total "reliability.successes"));
  Alcotest.(check int) "histogram folded" 4
    (R.histogram_count (R.histogram total "rounds" ~bounds:R.hop_bounds))

(* [observe_n h v ~n] against n [observe h v] calls, after a prior run
   of observations that leaves an integer or a fractional sum, near
   2^53 or far below it: same buckets, same total, same sum bits. *)
let prop_observe_n_is_n_observes =
  let open QCheck2.Gen in
  let value =
    oneof
      [
        map float_of_int (int_range (-40) 40);
        float_range (-50.0) 50.0;
        map (fun k -> float_of_int k /. 8.0) (int_range (-80) 80);
        oneofl [ 0.0; -0.0; 0.1; 1.0; 31.0; 0x1p52; -0x1p52; 0x1p53 -. 3.0 ];
      ]
  in
  Helpers.qcheck ~count:500 "observe_n = n observes (counts, total, sum bits)"
    (triple (list_size (int_bound 6) value) value (int_bound 300))
    (fun (prior, v, n) ->
      let bounds = R.linear_bounds ~lo:(-10.0) ~step:1.0 ~count:40 in
      let r = R.create () in
      let bulk = R.histogram r "bulk" ~bounds and one = R.histogram r "one" ~bounds in
      List.iter
        (fun x ->
          R.observe bulk x;
          R.observe one x)
        prior;
      R.observe_n bulk v ~n;
      for _ = 1 to n do
        R.observe one v
      done;
      R.histogram_counts bulk = R.histogram_counts one
      && R.histogram_count bulk = R.histogram_count one
      && Int64.bits_of_float (R.histogram_sum bulk) = Int64.bits_of_float (R.histogram_sum one))

let test_observe_n_rejects_negative () =
  let h = R.histogram (R.create ()) "h" ~bounds:R.depth_bounds in
  Alcotest.check_raises "negative" (Invalid_argument "Registry.observe_n: negative count")
    (fun () -> R.observe_n h 1.0 ~n:(-1));
  R.observe_n h 1.0 ~n:0;
  Alcotest.(check int) "n = 0 records nothing" 0 (R.histogram_count h)

(* The event ring is allocated by the first event: creating a registry
   costs a few hundred words, not the ring's 2 MiB, and a registry
   that never records an event reports what an allocated empty ring
   did, through merge and clear too. *)
let test_event_ring_on_first_use () =
  let before = Gc.allocated_bytes () in
  let r = R.create () in
  let cost = Gc.allocated_bytes () -. before in
  Alcotest.(check bool) (Printf.sprintf "create allocates %.0f bytes (< 16 KiB)" cost) true
    (cost < 16384.0);
  Alcotest.(check int) "no events" 0 (List.length (R.events r));
  Alcotest.(check int) "none recorded" 0 (R.events_recorded r);
  Alcotest.(check int) "none dropped" 0 (R.events_dropped r);
  let other = R.create () in
  R.merge other r;
  R.merge r other;
  R.clear r;
  Alcotest.(check int) "still none after merge and clear" 0 (R.events_recorded r);
  let small = R.create ~event_capacity:2 () in
  R.clear small;
  List.iteri (fun i k -> R.event_at small ~at:(float_of_int i) k ~node:i ~info:0) [ R.Crash; R.Recover; R.Crash ];
  Alcotest.(check (list (float 0.0))) "ring keeps the last two" [ 1.0; 2.0 ]
    (List.map (fun e -> e.R.at) (R.events small));
  Alcotest.(check int) "one dropped" 1 (R.events_dropped small);
  R.merge r small;
  Alcotest.(check int) "merge into an unallocated ring" 2 (List.length (R.events r));
  Alcotest.(check int) "eviction-proof totals add" 2 (R.event_kind_count r R.Crash)

(* The JSON exporter's floats read back to the registry's values to
   the last bit: histogram bounds 2^0..2^23 (which %g printed as
   1.04858e+06 ... 8.38861e+06), integral sums such as a flood's
   3,145,739 unit latencies, fractional sums and means, gauges. *)
let test_json_floats_read_back () =
  let r = R.create () in
  let lat = R.histogram r "lat" ~bounds:R.time_bounds in
  R.observe_n lat 1.0 ~n:3_145_739;
  let frac = R.histogram r "frac" ~bounds:R.hop_bounds in
  List.iter (R.observe frac) [ 0.1; 1.0 /. 3.0; 2.0 /. 7.0; 1e-7; 12345.678901234 ];
  R.set (R.gauge r "g") (1.0 /. 3.0);
  let doc = Obs.Export.to_json r in
  (* the JSON text after [key] inside the object of histogram [name] *)
  let after ~from key =
    let rec find i =
      if String.sub doc i (String.length key) = key then i + String.length key else find (i + 1)
    in
    find from
  in
  let value_at i =
    let j = ref i in
    while not (List.mem doc.[!j] [ ','; '\n'; ']' ]) do
      incr j
    done;
    String.sub doc i (!j - i)
  in
  let bits x = Int64.bits_of_float x in
  let check_exact what expected printed =
    Alcotest.(check int64) (what ^ " = " ^ printed) (bits expected) (bits (float_of_string printed))
  in
  List.iter
    (fun h ->
      let name = R.histogram_name h in
      let at = after ~from:0 ("\"" ^ name ^ "\": {") in
      check_exact (name ^ " sum") (R.histogram_sum h) (value_at (after ~from:at "\"sum\": "));
      let b = after ~from:at "\"bounds\": [" in
      let printed = String.split_on_char ',' (String.sub doc b (String.index_from doc b ']' - b)) in
      Alcotest.(check int) (name ^ " bound count") (Array.length (R.histogram_bounds h))
        (List.length printed);
      List.iteri
        (fun i p -> check_exact (Printf.sprintf "%s bound %d" name i) (R.histogram_bounds h).(i) (String.trim p))
        printed)
    (R.histograms r);
  check_exact "gauge" (1.0 /. 3.0) (value_at (after ~from:0 "\"g\": "));
  Alcotest.(check string) "2^23 prints as an integer" "8388608" (Obs.Export.json_float 0x1p23);
  Alcotest.(check string) "sum prints as an integer" "3145739" (Obs.Export.json_float 3145739.0);
  Alcotest.(check string) "shortest form" "0.1" (Obs.Export.json_float 0.1);
  Alcotest.(check string) "non-finite clamps" "0" (Obs.Export.json_float Float.nan)

let prop_json_float_round_trips =
  Helpers.qcheck ~count:500 "json_float reads back exactly"
    QCheck2.Gen.(
      oneof
        [
          float;
          map float_of_int int;
          map2 (fun m e -> Float.ldexp (float_of_int m) e) (int_range (-1000) 1000) (int_range (-60) 60);
        ])
    (fun x ->
      (not (Float.is_finite x))
      ||
      let s = Obs.Export.json_float x in
      Int64.bits_of_float (float_of_string s) = Int64.bits_of_float x
      && ((not (Float.is_integer x && Float.abs x < 0x1p53))
         || String.for_all (fun c -> c = '-' || (c >= '0' && c <= '9')) s))

let suite =
  [
    Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "merge values" `Quick test_merge_counters_gauges_histograms;
    Alcotest.test_case "merge events" `Quick test_merge_events_and_kind_counts;
    Alcotest.test_case "merge rejects mismatched bounds" `Quick
      test_merge_mismatched_histogram_rejected;
    Alcotest.test_case "merge disabled no-op" `Quick test_merge_disabled_is_noop;
    Alcotest.test_case "merge per-domain registries" `Quick test_merge_folds_per_domain_registries;
    Alcotest.test_case "gauge semantics" `Quick test_gauge_semantics;
    Alcotest.test_case "type clash rejected" `Quick test_type_clash_rejected;
    Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
    Alcotest.test_case "histogram bad bounds" `Quick test_histogram_bad_bounds;
    Alcotest.test_case "disabled registry is inert" `Quick test_disabled_registry_is_inert;
    Alcotest.test_case "event ring eviction" `Quick test_event_ring_eviction;
    Alcotest.test_case "clock shared with sim" `Quick test_clock_shared_with_sim;
    Alcotest.test_case "clear keeps registrations" `Quick test_clear_keeps_registrations;
    Alcotest.test_case "export json structure" `Quick test_export_json_structure;
    Alcotest.test_case "runner percentiles" `Quick test_runner_percentiles;
    prop_observe_n_is_n_observes;
    Alcotest.test_case "observe_n rejects a negative count" `Quick test_observe_n_rejects_negative;
    Alcotest.test_case "event ring allocated on first event" `Quick test_event_ring_on_first_use;
    Alcotest.test_case "json floats read back exactly" `Quick test_json_floats_read_back;
    prop_json_float_round_trips;
  ]
