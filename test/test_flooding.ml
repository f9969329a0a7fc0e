open Helpers
module Graph = Graph_core.Graph
module Generators = Graph_core.Generators
module Prng = Graph_core.Prng
module Flooding = Flood.Flooding
module Sync = Flood.Sync
module Csr = Graph_core.Csr

let test_full_coverage_no_failures () =
  let g = petersen () in
  let r = Flooding.run_csr_env ~env:Flood.Env.default ~csr:(Csr.of_graph g) ~source:0 () in
  check_bool "covers all" true r.Flooding.covers_all_alive;
  Array.iter (fun d -> check_bool "everyone" true d) r.Flooding.delivered

let test_hops_equal_bfs_distances () =
  let g = petersen () in
  let r = Flooding.run_csr_env ~env:Flood.Env.default ~csr:(Csr.of_graph g) ~source:0 () in
  let dist = Graph_core.Bfs.distances g ~src:0 in
  Alcotest.(check (array int)) "unit latency = BFS" dist r.Flooding.hops

let test_message_count_failure_free () =
  let g = Generators.cycle 8 in
  let r = Flooding.run_csr_env ~env:Flood.Env.default ~csr:(Csr.of_graph g) ~source:0 () in
  check_int "2m - (n-1)" (Sync.message_bound (Csr.of_graph g)) r.Flooding.messages_sent

let test_sync_agreement () =
  (* event-driven run with unit latency matches the closed-form analysis *)
  List.iter
    (fun g ->
      let sim = Flooding.run_csr_env ~env:Flood.Env.default ~csr:(Csr.of_graph g) ~source:0 () in
      let ana = Sync.flood_csr (Csr.of_graph g) ~source:0 in
      check_int "messages agree" ana.Sync.messages sim.Flooding.messages_sent;
      check_int "rounds agree" ana.Sync.rounds sim.Flooding.max_hops;
      Alcotest.(check (float 1e-9)) "completion = rounds" (float_of_int ana.Sync.rounds)
        sim.Flooding.completion_time)
    [ petersen (); Generators.cycle 9; Generators.complete 6; Generators.grid ~rows:3 ~cols:5 ]

let test_crash_blocks_forwarding () =
  (* path 0-1-2: crashing 1 partitions; 2 never hears *)
  let g = Generators.path_graph 3 in
  let r = Flooding.run_csr_env ~env:(Flood.Env.make ~crashed:[ 1 ] ()) ~csr:(Csr.of_graph g) ~source:0 () in
  check_bool "2 unreachable" false r.Flooding.delivered.(2);
  check_bool "not all covered" false r.Flooding.covers_all_alive

let test_crashed_source_rejected () =
  let g = Generators.cycle 4 in
  Alcotest.check_raises "source crashed" (Invalid_argument "Flood.run: source is crashed")
    (fun () -> ignore (Flooding.run_csr_env ~env:(Flood.Env.make ~crashed:[ 0 ] ()) ~csr:(Csr.of_graph g) ~source:0 ()))

let test_link_failures_tolerated () =
  let g = Generators.cycle 6 in
  (* one link failure on a 2-connected ring still floods everyone *)
  let r = Flooding.run_csr_env ~env:(Flood.Env.make ~failed_links:[ (0, 1) ] ()) ~csr:(Csr.of_graph g) ~source:0 () in
  check_bool "covered" true r.Flooding.covers_all_alive

let test_k_minus_1_crashes_never_partition_lhg () =
  let b = Lhg_core.Build.kdiamond_exn ~n:38 ~k:4 in
  let g = b.Lhg_core.Build.graph in
  let rngv = rng () in
  for trial = 1 to 25 do
    let crashed = Flood.Runner.random_crashes rngv ~n:(Graph.n g) ~count:3 ~avoid:0 in
    let r = Flooding.run_csr_env ~env:(Flood.Env.make ~crashed ~seed:trial ()) ~csr:(Csr.of_graph g) ~source:0 () in
    check_bool "k-1 crashes still covered" true r.Flooding.covers_all_alive
  done

let test_k_minus_1_link_failures_never_partition_lhg () =
  let b = Lhg_core.Build.ktree_exn ~n:30 ~k:4 in
  let g = b.Lhg_core.Build.graph in
  let rngv = rng ~salt:5 () in
  for trial = 1 to 25 do
    let failed_links = Flood.Runner.random_link_failures rngv (Csr.of_graph g) ~count:3 in
    let r = Flooding.run_csr_env ~env:(Flood.Env.make ~failed_links ~seed:trial ()) ~csr:(Csr.of_graph g) ~source:0 () in
    check_bool "k-1 link failures still covered" true r.Flooding.covers_all_alive
  done

let test_latency_variation_still_covers () =
  let g = petersen () in
  let r =
    Flooding.run_csr_env ~env:(Flood.Env.make ~latency:(Netsim.Network.uniform_latency ~lo:0.5 ~hi:2.0) ~seed:3 ()) ~csr:(Csr.of_graph g) ~source:4 ()
  in
  check_bool "covered" true r.Flooding.covers_all_alive;
  (* hops can exceed BFS distance under non-uniform latency, but delivery
     times are positive and bounded by hop count * max latency *)
  Array.iteri
    (fun v t -> if v <> 4 then check_bool "positive time" true (t > 0.0))
    r.Flooding.delivery_time

let test_determinism_same_seed () =
  let g = Generators.grid ~rows:4 ~cols:4 in
  let r1 =
    Flooding.run_csr_env ~env:(Flood.Env.make ~latency:(Netsim.Network.uniform_latency ~lo:0.1 ~hi:1.0) ~seed:11 ()) ~csr:(Csr.of_graph g) ~source:0 ()
  in
  let r2 =
    Flooding.run_csr_env ~env:(Flood.Env.make ~latency:(Netsim.Network.uniform_latency ~lo:0.1 ~hi:1.0) ~seed:11 ()) ~csr:(Csr.of_graph g) ~source:0 ()
  in
  Alcotest.(check (array (float 0.0))) "same timings" r1.Flooding.delivery_time
    r2.Flooding.delivery_time;
  check_int "same messages" r1.Flooding.messages_sent r2.Flooding.messages_sent

let prop_flooding_covers_any_connected_graph =
  qcheck ~count:50 "flooding reaches every vertex of a connected graph"
    QCheck2.Gen.(int_bound 100_000) (fun seed ->
      let rngv = Prng.create ~seed in
      let n = 5 + Prng.int rngv 30 in
      let g = Generators.gnp rngv ~n ~p:0.2 in
      for v = 0 to n - 1 do
        Graph.add_edge g v ((v + 1) mod n)
      done;
      let r = Flooding.run_csr_env ~env:Flood.Env.default ~csr:(Csr.of_graph g) ~source:(Prng.int rngv n) () in
      r.Flooding.covers_all_alive)

let prop_engines_identical_wire_traces =
  qcheck ~count:25 "calendar and heap engines leave byte-identical wire traces"
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let rngv = Prng.create ~seed in
      let n = 8 + Prng.int rngv 40 in
      match Lhg_core.Build.kdiamond ~n ~k:4 with
      | Error _ -> false
      | Ok b ->
          let flood engine =
            let trace = Netsim.Trace.create () in
            let env =
              Flood.Env.make
                ~latency:(Netsim.Network.uniform_latency ~lo:0.25 ~hi:3.0)
                ~loss_rate:0.05 ~processing_delay:0.125 ~seed ~engine ~trace ()
            in
            let r = Flooding.run_csr_env ~env ~csr:(Csr.of_graph b.Lhg_core.Build.graph) ~source:0 () in
            (Netsim.Trace.events trace, r.Flooding.messages_sent, r.Flooding.delivery_time)
          in
          flood Netsim.Sim.Calendar = flood Netsim.Sim.Heap)

let suite =
  [
    Alcotest.test_case "full coverage" `Quick test_full_coverage_no_failures;
    Alcotest.test_case "hops = BFS" `Quick test_hops_equal_bfs_distances;
    Alcotest.test_case "message count" `Quick test_message_count_failure_free;
    Alcotest.test_case "sync agreement" `Quick test_sync_agreement;
    Alcotest.test_case "crash blocks forwarding" `Quick test_crash_blocks_forwarding;
    Alcotest.test_case "crashed source rejected" `Quick test_crashed_source_rejected;
    Alcotest.test_case "link failure tolerated" `Quick test_link_failures_tolerated;
    Alcotest.test_case "k-1 crashes on LHG" `Slow test_k_minus_1_crashes_never_partition_lhg;
    Alcotest.test_case "k-1 link failures on LHG" `Slow
      test_k_minus_1_link_failures_never_partition_lhg;
    Alcotest.test_case "latency variation" `Quick test_latency_variation_still_covers;
    Alcotest.test_case "determinism" `Quick test_determinism_same_seed;
    prop_flooding_covers_any_connected_graph;
    prop_engines_identical_wire_traces;
  ]
