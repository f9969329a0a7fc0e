open Helpers
module Generators = Graph_core.Generators
module Reliability = Flood.Reliability
module Csr = Graph_core.Csr

let test_wilson_interval_basic () =
  let lo, hi = Reliability.wilson_interval ~successes:50 ~trials:100 in
  check_bool "brackets the estimate" true (lo < 0.5 && 0.5 < hi);
  check_bool "reasonable width" true (hi -. lo < 0.25);
  let lo, hi = Reliability.wilson_interval ~successes:100 ~trials:100 in
  check_bool "upper pinned" true (hi > 0.9999);
  check_bool "lower below one" true (lo < 1.0);
  let lo, _ = Reliability.wilson_interval ~successes:0 ~trials:100 in
  Alcotest.(check (float 1e-9)) "lower pinned" 0.0 lo

let test_wilson_narrows_with_trials () =
  let lo1, hi1 = Reliability.wilson_interval ~successes:9 ~trials:10 in
  let lo2, hi2 = Reliability.wilson_interval ~successes:900 ~trials:1000 in
  check_bool "narrower" true (hi2 -. lo2 < hi1 -. lo1)

let test_flood_p0_is_certain () =
  let b = Lhg_core.Build.kdiamond_exn ~n:20 ~k:3 in
  let e =
    Reliability.flood_delivery ~csr:(Csr.of_graph b.Lhg_core.Build.graph) ~source:0 ~node_failure_prob:0.0
      ~trials:50 ~seed:1 ()
  in
  Alcotest.(check (float 1e-9)) "certain" 1.0 e.Reliability.probability

let test_flood_p1_only_source_survives () =
  let b = Lhg_core.Build.kdiamond_exn ~n:20 ~k:3 in
  let e =
    Reliability.flood_delivery ~csr:(Csr.of_graph b.Lhg_core.Build.graph) ~source:0 ~node_failure_prob:1.0
      ~trials:20 ~seed:2 ()
  in
  (* everyone but the source fails: the source trivially covers itself *)
  Alcotest.(check (float 1e-9)) "vacuously reliable" 1.0 e.Reliability.probability

let test_lhg_beats_tree () =
  let b = Lhg_core.Build.kdiamond_exn ~n:62 ~k:4 in
  let lhg = b.Lhg_core.Build.graph in
  let tree = Topo.Spanning_tree.bfs_tree lhg ~root:0 in
  let p = 0.05 and trials = 300 in
  let e_lhg = Reliability.flood_delivery ~csr:(Csr.of_graph lhg) ~source:0 ~node_failure_prob:p ~trials ~seed:3 () in
  let e_tree =
    Reliability.flood_delivery ~csr:(Csr.of_graph tree) ~source:0 ~node_failure_prob:p ~trials ~seed:3 ()
  in
  check_bool
    (Printf.sprintf "lhg %.2f > tree %.2f" e_lhg.Reliability.probability
       e_tree.Reliability.probability)
    true
    (e_lhg.Reliability.probability > e_tree.Reliability.probability +. 0.1)

let test_reliability_monotone_in_p () =
  let g = Generators.cycle 30 in
  let est p = (Reliability.flood_delivery ~csr:(Csr.of_graph g) ~source:0 ~node_failure_prob:p ~trials:300 ~seed:4 ()).Reliability.probability in
  let p05 = est 0.05 and p25 = est 0.25 in
  check_bool "higher p, lower reliability" true (p05 > p25)

let test_gossip_below_flood () =
  let b = Lhg_core.Build.kdiamond_exn ~n:44 ~k:4 in
  let g = b.Lhg_core.Build.graph in
  let f = Reliability.flood_delivery ~csr:(Csr.of_graph g) ~source:0 ~node_failure_prob:0.02 ~trials:150 ~seed:5 () in
  let go =
    Reliability.gossip_delivery ~csr:(Csr.of_graph g) ~source:0 ~fanout:2 ~node_failure_prob:0.02 ~trials:150
      ~seed:5 ()
  in
  check_bool "flood at least as reliable as weak gossip" true
    (f.Reliability.probability >= go.Reliability.probability)

let test_estimate_bounds_order () =
  let b = Lhg_core.Build.ktree_exn ~n:30 ~k:3 in
  let e =
    Reliability.flood_delivery ~csr:(Csr.of_graph b.Lhg_core.Build.graph) ~source:0 ~node_failure_prob:0.1
      ~trials:200 ~seed:6 ()
  in
  check_bool "lo <= p <= hi" true
    (e.Reliability.lo <= e.Reliability.probability && e.Reliability.probability <= e.Reliability.hi)

let test_estimate_of_valid () =
  let e = Reliability.estimate_of ~successes:30 ~trials:100 in
  Alcotest.(check (float 1e-9)) "ratio" 0.3 e.Reliability.probability;
  check_int "trials carried" 100 e.Reliability.trials;
  check_bool "interval brackets" true (e.Reliability.lo <= 0.3 && 0.3 <= e.Reliability.hi)

let test_estimate_of_rejects_bad_args () =
  Alcotest.check_raises "zero trials"
    (Invalid_argument "Reliability.estimate_of: trials must be positive") (fun () ->
      ignore (Reliability.estimate_of ~successes:0 ~trials:0));
  Alcotest.check_raises "negative trials"
    (Invalid_argument "Reliability.estimate_of: trials must be positive") (fun () ->
      ignore (Reliability.estimate_of ~successes:0 ~trials:(-5)));
  Alcotest.check_raises "successes above trials"
    (Invalid_argument "Reliability.estimate_of: successes outside [0, trials]") (fun () ->
      ignore (Reliability.estimate_of ~successes:11 ~trials:10));
  Alcotest.check_raises "negative successes"
    (Invalid_argument "Reliability.estimate_of: successes outside [0, trials]") (fun () ->
      ignore (Reliability.estimate_of ~successes:(-1) ~trials:10))

let suite =
  [
    Alcotest.test_case "wilson basic" `Quick test_wilson_interval_basic;
    Alcotest.test_case "estimate_of valid" `Quick test_estimate_of_valid;
    Alcotest.test_case "estimate_of rejects bad args" `Quick test_estimate_of_rejects_bad_args;
    Alcotest.test_case "wilson narrows" `Quick test_wilson_narrows_with_trials;
    Alcotest.test_case "flood p=0 certain" `Quick test_flood_p0_is_certain;
    Alcotest.test_case "flood p=1 vacuous" `Quick test_flood_p1_only_source_survives;
    Alcotest.test_case "lhg beats tree" `Slow test_lhg_beats_tree;
    Alcotest.test_case "monotone in p" `Slow test_reliability_monotone_in_p;
    Alcotest.test_case "gossip below flood" `Slow test_gossip_below_flood;
    Alcotest.test_case "estimate bounds" `Quick test_estimate_bounds_order;
  ]
