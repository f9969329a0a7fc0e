open Helpers
module Generators = Graph_core.Generators
module Gossip = Flood.Gossip
module Csr = Graph_core.Csr

let test_full_fanout_on_complete_graph () =
  (* fanout >= degree on a complete graph = flooding: always covers *)
  let g = Generators.complete 10 in
  let r = Gossip.run_env ~env:(Flood.Env.make ~seed:1 ()) ~csr:(Csr.of_graph g) ~source:0 ~fanout:9 ~ttl:10 () in
  Alcotest.(check (float 1e-9)) "full coverage" 1.0 r.Gossip.coverage_of_alive

let test_ttl_1_stops_after_first_hop () =
  let g = Generators.path_graph 5 in
  let r = Gossip.run_env ~env:(Flood.Env.make ~seed:2 ()) ~csr:(Csr.of_graph g) ~source:0 ~fanout:3 ~ttl:1 () in
  check_bool "vertex 1 reached" true r.Gossip.delivered.(1);
  check_bool "vertex 2 not reached" false r.Gossip.delivered.(2)

let test_messages_bounded_by_n_times_fanout () =
  let g = Generators.complete 20 in
  let r = Gossip.run_env ~env:(Flood.Env.make ~seed:3 ()) ~csr:(Csr.of_graph g) ~source:0 ~fanout:4 ~ttl:20 () in
  check_bool "message bound" true (r.Gossip.messages_sent <= 20 * 4)

let test_high_fanout_covers_expander () =
  let rngv = rng () in
  let g = Topo.Expander.random_regular rngv ~n:128 ~degree:8 in
  let r = Gossip.run_env ~env:(Flood.Env.make ~seed:4 ()) ~csr:(Csr.of_graph g) ~source:0 ~fanout:8 ~ttl:(Gossip.default_ttl ~n:128) () in
  Alcotest.(check (float 1e-9)) "covers" 1.0 r.Gossip.coverage_of_alive

let test_low_fanout_can_miss () =
  (* fanout 1 on a sparse ring will almost surely miss some nodes *)
  let g = Generators.cycle 50 in
  let r = Gossip.run_env ~env:(Flood.Env.make ~seed:5 ()) ~csr:(Csr.of_graph g) ~source:0 ~fanout:1 ~ttl:10 () in
  check_bool "misses someone" true (r.Gossip.coverage_of_alive < 1.0)

let test_crashes_reduce_coverage_gracefully () =
  let g = Generators.complete 12 in
  let r = Gossip.run_env ~env:(Flood.Env.make ~seed:6 ~crashed:[ 1; 2; 3 ] ()) ~csr:(Csr.of_graph g) ~source:0 ~fanout:11 ~ttl:6 () in
  Alcotest.(check (float 1e-9)) "alive all covered" 1.0 r.Gossip.coverage_of_alive;
  check_bool "crashed not delivered" true (not r.Gossip.delivered.(1))

let test_invalid_args () =
  let g = Generators.cycle 4 in
  Alcotest.check_raises "fanout" (Invalid_argument "Gossip.run: fanout < 1") (fun () ->
      ignore (Gossip.run_env ~env:Flood.Env.default ~csr:(Csr.of_graph g) ~source:0 ~fanout:0 ~ttl:3 ()));
  Alcotest.check_raises "ttl" (Invalid_argument "Gossip.run: ttl < 1") (fun () ->
      ignore (Gossip.run_env ~env:Flood.Env.default ~csr:(Csr.of_graph g) ~source:0 ~fanout:2 ~ttl:0 ()))

let test_default_ttl_logarithmic () =
  check_int "n=1" 1 (Gossip.default_ttl ~n:1);
  check_int "n=1024" 14 (Gossip.default_ttl ~n:1024);
  check_bool "grows slowly" true (Gossip.default_ttl ~n:1_000_000 <= 25)

let test_determinism () =
  let g = Generators.complete 15 in
  let r1 = Gossip.run_env ~env:(Flood.Env.make ~seed:42 ()) ~csr:(Csr.of_graph g) ~source:0 ~fanout:3 ~ttl:6 () in
  let r2 = Gossip.run_env ~env:(Flood.Env.make ~seed:42 ()) ~csr:(Csr.of_graph g) ~source:0 ~fanout:3 ~ttl:6 () in
  Alcotest.(check (array bool)) "same deliveries" r1.Gossip.delivered r2.Gossip.delivered;
  check_int "same messages" r1.Gossip.messages_sent r2.Gossip.messages_sent

let suite =
  [
    Alcotest.test_case "full fanout complete graph" `Quick test_full_fanout_on_complete_graph;
    Alcotest.test_case "ttl 1" `Quick test_ttl_1_stops_after_first_hop;
    Alcotest.test_case "message bound" `Quick test_messages_bounded_by_n_times_fanout;
    Alcotest.test_case "high fanout covers expander" `Quick test_high_fanout_covers_expander;
    Alcotest.test_case "low fanout misses" `Quick test_low_fanout_can_miss;
    Alcotest.test_case "crashes graceful" `Quick test_crashes_reduce_coverage_gracefully;
    Alcotest.test_case "invalid args" `Quick test_invalid_args;
    Alcotest.test_case "default ttl" `Quick test_default_ttl_logarithmic;
    Alcotest.test_case "determinism" `Quick test_determinism;
  ]
