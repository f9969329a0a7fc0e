open Helpers
module Graph = Graph_core.Graph
module Generators = Graph_core.Generators
module Pif = Flood.Pif
module Csr = Graph_core.Csr

let test_completes_and_informs_all () =
  let g = petersen () in
  let r = Pif.run_env ~env:Flood.Env.default ~csr:(Csr.of_graph g) ~source:0 () in
  check_bool "completed" true r.Pif.completed;
  Array.iter (fun i -> check_bool "informed" true i) r.Pif.informed

let test_message_count_two_per_edge () =
  (* every propagate is answered by exactly one echo: 2 messages per
     directed use... total = 2 * (number of propagates) = 2 * (2m - (n-1))?
     PIF sends propagates on every edge except back to parents:
     propagates = 2m - (n-1); echoes = propagates. *)
  List.iter
    (fun g ->
      let r = Pif.run_env ~env:Flood.Env.default ~csr:(Csr.of_graph g) ~source:0 () in
      let propagates = (2 * Graph.m g) - (Graph.n g - 1) in
      check_int "messages = 2 * propagates" (2 * propagates) r.Pif.messages)
    [ petersen (); Generators.cycle 9; Generators.complete 6; Generators.grid ~rows:3 ~cols:4 ]

let test_detection_after_actual_completion () =
  let g = Generators.grid ~rows:5 ~cols:5 in
  let r = Pif.run_env ~env:Flood.Env.default ~csr:(Csr.of_graph g) ~source:0 () in
  check_bool "completed" true r.Pif.completed;
  check_bool "detected after last delivery" true
    (r.Pif.completion_detected_at >= r.Pif.last_delivery_at)

let test_detection_time_about_twice_ecc () =
  let g = Generators.path_graph 10 in
  let r = Pif.run_env ~env:Flood.Env.default ~csr:(Csr.of_graph g) ~source:0 () in
  (* unit latency: wave down 9 hops, echoes back 9 hops *)
  Alcotest.(check (float 1e-9)) "2 * ecc" 18.0 r.Pif.completion_detected_at

let test_single_vertex () =
  let g = Graph.create ~n:1 in
  let r = Pif.run_env ~env:Flood.Env.default ~csr:(Csr.of_graph g) ~source:0 () in
  check_bool "trivially complete" true r.Pif.completed;
  check_int "no messages" 0 r.Pif.messages

let test_crash_blocks_completion () =
  (* a crashed node swallows the echo: the source must not claim success *)
  let b = Lhg_core.Build.kdiamond_exn ~n:20 ~k:3 in
  let g = b.Lhg_core.Build.graph in
  let r = Pif.run_env ~env:(Flood.Env.make ~crashed:[ 7 ] ()) ~csr:(Csr.of_graph g) ~source:0 () in
  check_bool "not completed under crash" false r.Pif.completed;
  (* but the flooding wave itself still reaches all other survivors *)
  Array.iteri
    (fun v i -> if v <> 7 then check_bool "survivor informed" true i)
    r.Pif.informed

let test_disconnected_source_component_only () =
  let g = Graph.of_edges ~n:5 [ (0, 1); (1, 2); (3, 4) ] in
  let r = Pif.run_env ~env:Flood.Env.default ~csr:(Csr.of_graph g) ~source:0 () in
  check_bool "completed for its component" true r.Pif.completed;
  check_bool "other component untouched" false r.Pif.informed.(3)

let test_lhg_detection_logarithmic () =
  let b = Lhg_core.Build.kdiamond_exn ~n:302 ~k:4 in
  let r = Pif.run_env ~env:Flood.Env.default ~csr:(Csr.of_graph b.Lhg_core.Build.graph) ~source:0 () in
  check_bool "completed" true r.Pif.completed;
  check_bool "detection fast" true (r.Pif.completion_detected_at <= 24.0);
  let h = Harary.make ~k:4 ~n:302 in
  let rh = Pif.run_env ~env:Flood.Env.default ~csr:(Csr.of_graph h) ~source:0 () in
  check_bool "harary detection slow" true
    (rh.Pif.completion_detected_at > 4.0 *. r.Pif.completion_detected_at)

let test_crashed_source_rejected () =
  let g = Generators.cycle 4 in
  Alcotest.check_raises "crashed source" (Invalid_argument "Pif.run: source is crashed")
    (fun () -> ignore (Pif.run_env ~env:(Flood.Env.make ~crashed:[ 0 ] ()) ~csr:(Csr.of_graph g) ~source:0 ()))

let prop_pif_completes_on_connected =
  qcheck ~count:50 "PIF completes on random connected graphs" QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let rngv = Graph_core.Prng.create ~seed in
      let n = 4 + Graph_core.Prng.int rngv 25 in
      let g = Generators.gnp rngv ~n ~p:0.2 in
      for v = 0 to n - 1 do
        Graph.add_edge g v ((v + 1) mod n)
      done;
      let r = Pif.run_env ~env:Flood.Env.default ~csr:(Csr.of_graph g) ~source:(Graph_core.Prng.int rngv n) () in
      r.Pif.completed && Array.for_all Fun.id r.Pif.informed)

let suite =
  [
    Alcotest.test_case "completes and informs" `Quick test_completes_and_informs_all;
    Alcotest.test_case "two messages per propagate" `Quick test_message_count_two_per_edge;
    Alcotest.test_case "detection after completion" `Quick test_detection_after_actual_completion;
    Alcotest.test_case "detection time 2*ecc" `Quick test_detection_time_about_twice_ecc;
    Alcotest.test_case "single vertex" `Quick test_single_vertex;
    Alcotest.test_case "crash blocks completion" `Quick test_crash_blocks_completion;
    Alcotest.test_case "disconnected component" `Quick test_disconnected_source_component_only;
    Alcotest.test_case "lhg detection logarithmic" `Quick test_lhg_detection_logarithmic;
    Alcotest.test_case "crashed source rejected" `Quick test_crashed_source_rejected;
    prop_pif_completes_on_connected;
  ]
