open Helpers
module Graph = Graph_core.Graph
module Generators = Graph_core.Generators
module Runner = Flood.Runner
module Csr = Graph_core.Csr

let test_random_crashes_avoid_source () =
  let rngv = rng () in
  for _ = 1 to 50 do
    let cs = Runner.random_crashes rngv ~n:20 ~count:5 ~avoid:7 in
    check_int "count" 5 (List.length cs);
    check_int "distinct" 5 (List.length (List.sort_uniq compare cs));
    check_bool "avoids source" false (List.mem 7 cs);
    List.iter (fun v -> check_bool "range" true (v >= 0 && v < 20)) cs
  done

let test_random_crashes_bad_count () =
  let rngv = rng ~salt:1 () in
  Alcotest.check_raises "too many" (Invalid_argument "Runner.random_crashes: bad count")
    (fun () -> ignore (Runner.random_crashes rngv ~n:5 ~count:5 ~avoid:0))

let test_random_link_failures_are_edges () =
  let rngv = rng ~salt:2 () in
  let g = petersen () in
  let fs = Runner.random_link_failures rngv (Csr.of_graph g) ~count:4 in
  check_int "count" 4 (List.length fs);
  List.iter (fun (u, v) -> check_bool "is edge" true (Graph.has_edge g u v)) fs

let test_flood_trials_no_failures_full_coverage () =
  let g = Generators.complete 10 in
  let a = Runner.flood_trials_env ~env:(Flood.Env.make ~seed:1 ()) ~csr:(Csr.of_graph g) ~source:0 ~crash_count:0 ~trials:5 () in
  Alcotest.(check (float 1e-9)) "mean coverage" 1.0 a.Runner.mean_coverage;
  Alcotest.(check (float 1e-9)) "all covered" 1.0 a.Runner.all_covered_fraction;
  check_int "trials" 5 a.Runner.trials

let test_flood_trials_k_minus_1_on_lhg () =
  let b = Lhg_core.Build.ktree_exn ~n:26 ~k:4 in
  let a =
    Runner.flood_trials_env ~env:(Flood.Env.make ~seed:2 ()) ~csr:(Csr.of_graph b.Lhg_core.Build.graph) ~source:0 ~crash_count:3 ~trials:20 ()
  in
  Alcotest.(check (float 1e-9)) "guaranteed delivery" 1.0 a.Runner.all_covered_fraction

let test_flood_trials_beyond_k_can_fail () =
  (* a ring (k=2) with many crashes will partition in some trial *)
  let g = Generators.cycle 30 in
  let a = Runner.flood_trials_env ~env:(Flood.Env.make ~seed:3 ()) ~csr:(Csr.of_graph g) ~source:0 ~crash_count:6 ~trials:30 () in
  check_bool "some trial partitions" true (a.Runner.all_covered_fraction < 1.0);
  check_bool "coverage sane" true (a.Runner.mean_coverage > 0.2 && a.Runner.mean_coverage <= 1.0)

let test_flood_trials_with_link_failures () =
  let b = Lhg_core.Build.kdiamond_exn ~n:20 ~k:4 in
  let a =
    Runner.flood_trials_env ~env:(Flood.Env.make ~seed:4 ()) ~link_failures:3 ~csr:(Csr.of_graph b.Lhg_core.Build.graph) ~source:0 ~crash_count:0 ~trials:15 ()
  in
  Alcotest.(check (float 1e-9)) "k-1 link failures harmless" 1.0 a.Runner.all_covered_fraction

let test_gossip_trials_aggregate () =
  let g = Generators.complete 12 in
  let a = Runner.gossip_trials_env ~env:(Flood.Env.make ~seed:5 ()) ~csr:(Csr.of_graph g) ~source:0 ~fanout:11 ~crash_count:0 ~trials:5 () in
  Alcotest.(check (float 1e-9)) "full coverage" 1.0 a.Runner.mean_coverage;
  check_bool "messages counted" true (a.Runner.mean_messages > 0.0)

let test_min_coverage_le_mean () =
  let g = Generators.cycle 25 in
  let a = Runner.flood_trials_env ~env:(Flood.Env.make ~seed:6 ()) ~csr:(Csr.of_graph g) ~source:0 ~crash_count:4 ~trials:25 () in
  check_bool "min <= mean" true (a.Runner.min_coverage <= a.Runner.mean_coverage +. 1e-9)

(* [percentile] against a sorted copy. Values come from a few levels,
   so most arrays are heavy with ties. The buffer has slack past [len],
   as the traffic driver's does, and it must stay untouched; every q is
   asked of the same buffer in a shuffled order, as the driver asks
   p50/p95/p99/max in turn, and the prefix must keep its multiset. *)
let prop_percentile_matches_sort =
  qcheck ~count:300 "percentile = sorted.(min (n-1) (max 1 ceil(q n) - 1))"
    QCheck2.Gen.(
      let* n = int_range 0 3000 in
      let* levels = oneof [ return 1; int_range 2 8; int_range 9 4000 ] in
      let* xs =
        array_repeat n (map (fun i -> (float_of_int i /. 4.0) -. 3.0) (int_bound (levels - 1)))
      in
      let* slack = int_bound 8 in
      let* order = shuffle_l [ 0.0; 0.5; 0.95; 0.99; 1.0 ] in
      return (xs, slack, order))
    (fun (xs, slack, order) ->
      let n = Array.length xs in
      let sorted = Array.copy xs in
      Array.sort Float.compare sorted;
      let buf = Array.append xs (Array.make slack 42.5) in
      let expected q =
        if n = 0 then 0.0
        else sorted.(min (n - 1) (max 1 (int_of_float (ceil (q *. float_of_int n))) - 1))
      in
      List.for_all (fun q -> Runner.percentile buf ~len:n q = expected q) order
      && Array.for_all (fun x -> x = 42.5) (Array.sub buf n slack)
      &&
      let prefix = Array.sub buf 0 n in
      Array.sort Float.compare prefix;
      prefix = sorted)

let test_percentile_bad_len () =
  Alcotest.check_raises "len past the array"
    (Invalid_argument "Runner.percentile: len outside the array") (fun () ->
      ignore (Runner.percentile [| 1.0 |] ~len:2 0.5))

let suite =
  [
    Alcotest.test_case "random crashes" `Quick test_random_crashes_avoid_source;
    Alcotest.test_case "random crashes bad count" `Quick test_random_crashes_bad_count;
    Alcotest.test_case "random link failures" `Quick test_random_link_failures_are_edges;
    Alcotest.test_case "flood trials full coverage" `Quick
      test_flood_trials_no_failures_full_coverage;
    Alcotest.test_case "flood trials k-1 guarantee" `Slow test_flood_trials_k_minus_1_on_lhg;
    Alcotest.test_case "flood trials beyond k" `Quick test_flood_trials_beyond_k_can_fail;
    Alcotest.test_case "flood trials link failures" `Quick test_flood_trials_with_link_failures;
    Alcotest.test_case "gossip trials" `Quick test_gossip_trials_aggregate;
    Alcotest.test_case "min <= mean" `Quick test_min_coverage_le_mean;
    prop_percentile_matches_sort;
    Alcotest.test_case "percentile len check" `Quick test_percentile_bad_len;
  ]
