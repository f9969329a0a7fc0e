open Helpers
module Generators = Graph_core.Generators
module Reliable = Flood.Reliable
module Csr = Graph_core.Csr

let pub ?(t = 0.0) origin id = { Reliable.origin; inject_time = t; payload_id = id }

let test_lossless_completes_like_flood () =
  let g = petersen () in
  let r =
    Reliable.run_env ~env:Flood.Env.default ~csr:(Csr.of_graph g) ~publications:[ pub 0 1 ] ~anti_entropy_period:5.0 ~duration:100.0 ()
  in
  check_bool "complete" true r.Reliable.complete;
  Alcotest.(check (float 1e-9)) "full fraction" 1.0 r.Reliable.delivered_fraction;
  (match r.Reliable.completion_time with
  | Some t -> check_bool "finished during flood phase" true (t <= 3.0)
  | None -> Alcotest.fail "completion time");
  (* flooding alone used 2m-(n-1) sends *)
  check_int "flood sends" (Flood.Sync.message_bound (Csr.of_graph g)) r.Reliable.flood_messages

let test_lossy_flood_alone_incomplete () =
  (* sanity for the premise: at 40% loss, plain flooding misses nodes *)
  let g = Generators.cycle 40 in
  let f = Flood.Flooding.run_csr_env ~env:(Flood.Env.make ~loss_rate:0.4 ~seed:5 ()) ~csr:(Csr.of_graph g) ~source:0 () in
  check_bool "plain flood misses someone" false f.Flood.Flooding.covers_all_alive

let test_lossy_repair_completes () =
  let g = Generators.cycle 40 in
  let r =
    Reliable.run_env ~env:(Flood.Env.make ~loss_rate:0.4 ~seed:5 ()) ~csr:(Csr.of_graph g) ~publications:[ pub 0 1 ] ~anti_entropy_period:2.0 ~duration:4000.0 ()
  in
  check_bool "repaired to completeness" true r.Reliable.complete;
  check_bool "repair did real work" true (r.Reliable.repair_messages > 0)

let test_multi_payload_with_loss () =
  let b = Lhg_core.Build.kdiamond_exn ~n:32 ~k:4 in
  let g = b.Lhg_core.Build.graph in
  let pubs = List.init 5 (fun i -> pub ~t:(float_of_int i) (i * 6) i) in
  let r =
    Reliable.run_env ~env:(Flood.Env.make ~loss_rate:0.2 ~seed:9 ()) ~csr:(Csr.of_graph g) ~publications:pubs ~anti_entropy_period:3.0 ~duration:2000.0 ()
  in
  check_bool "all payloads everywhere" true r.Reliable.complete

let test_crashed_nodes_excluded () =
  let g = Generators.complete 8 in
  let r =
    Reliable.run_env ~env:(Flood.Env.make ~crashed:[ 3; 4 ] ()) ~csr:(Csr.of_graph g) ~publications:[ pub 0 1 ] ~anti_entropy_period:2.0 ~duration:100.0 ()
  in
  check_bool "complete over survivors" true r.Reliable.complete

let test_horizon_truncates () =
  (* a duration too short for even one hop: incomplete *)
  let g = Generators.cycle 30 in
  let r =
    Reliable.run_env ~env:(Flood.Env.make ~latency:(Netsim.Network.constant_latency 10.0) ()) ~csr:(Csr.of_graph g) ~publications:[ pub 0 1 ] ~anti_entropy_period:5.0 ~duration:15.0 ()
  in
  check_bool "horizon too early" false r.Reliable.complete;
  check_bool "partial progress" true (r.Reliable.delivered_fraction > 0.0)

let test_repair_overhead_bounded () =
  let g = Generators.cycle 20 in
  let period = 5.0 and duration = 50.0 in
  let r =
    Reliable.run_env ~env:Flood.Env.default ~csr:(Csr.of_graph g) ~publications:[ pub 0 1 ] ~anti_entropy_period:period ~duration ()
  in
  (* each node sends at most ceil(duration/period)+1 digests (phase
     shift); replies only when the peer is missing data (none, since
     lossless) *)
  check_bool "digest budget" true
    (r.Reliable.repair_messages <= 20 * (int_of_float (duration /. period) + 1))

let test_validation () =
  let g = Generators.cycle 5 in
  Alcotest.check_raises "bad period" (Invalid_argument "Reliable.run: non-positive period")
    (fun () ->
      ignore (Reliable.run_env ~env:Flood.Env.default ~csr:(Csr.of_graph g) ~publications:[] ~anti_entropy_period:0.0 ~duration:1.0 ()));
  Alcotest.check_raises "dup ids" (Invalid_argument "Reliable.run: duplicate payload ids")
    (fun () ->
      ignore
        (Reliable.run_env ~env:Flood.Env.default ~csr:(Csr.of_graph g) ~publications:[ pub 0 1; pub 1 1 ] ~anti_entropy_period:1.0 ~duration:1.0 ()))

let suite =
  [
    Alcotest.test_case "lossless completes" `Quick test_lossless_completes_like_flood;
    Alcotest.test_case "lossy flood incomplete" `Quick test_lossy_flood_alone_incomplete;
    Alcotest.test_case "lossy repair completes" `Quick test_lossy_repair_completes;
    Alcotest.test_case "multi payload with loss" `Quick test_multi_payload_with_loss;
    Alcotest.test_case "crashed excluded" `Quick test_crashed_nodes_excluded;
    Alcotest.test_case "horizon truncates" `Quick test_horizon_truncates;
    Alcotest.test_case "repair overhead bounded" `Quick test_repair_overhead_bounded;
    Alcotest.test_case "validation" `Quick test_validation;
  ]
