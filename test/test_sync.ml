open Helpers
module Graph = Graph_core.Graph
module Generators = Graph_core.Generators
module Sync = Flood.Sync
module Csr = Graph_core.Csr

let test_cycle () =
  let g = Generators.cycle 8 in
  let r = Sync.flood_csr (Csr.of_graph g) ~source:0 in
  check_int "reached" 8 r.Sync.reached;
  check_int "rounds = eccentricity" 4 r.Sync.rounds;
  check_int "messages" ((2 * 8) - 7) r.Sync.messages;
  check_bool "covers" true r.Sync.covers_all_alive

let test_complete () =
  let g = Generators.complete 6 in
  let r = Sync.flood_csr (Csr.of_graph g) ~source:3 in
  check_int "one round" 1 r.Sync.rounds;
  (* every node sends deg - 1 except source sends deg: 6*5 - 5 *)
  check_int "messages" 25 r.Sync.messages

let test_star_from_center_and_leaf () =
  let g = Generators.star 6 in
  let from_center = Sync.flood_csr (Csr.of_graph g) ~source:0 in
  check_int "center rounds" 1 from_center.Sync.rounds;
  check_int "center messages" 5 from_center.Sync.messages;
  let from_leaf = Sync.flood_csr (Csr.of_graph g) ~source:1 in
  check_int "leaf rounds" 2 from_leaf.Sync.rounds;
  (* leaf sends 1, center sends 4 (all but parent) *)
  check_int "leaf messages" 5 from_leaf.Sync.messages

let test_disconnected () =
  let g = Graph.of_edges ~n:5 [ (0, 1); (2, 3) ] in
  let r = Sync.flood_csr (Csr.of_graph g) ~source:0 in
  check_int "partial reach" 2 r.Sync.reached;
  check_bool "does not cover" false r.Sync.covers_all_alive

let test_alive_mask () =
  let g = Generators.path_graph 5 in
  let alive = [| true; true; false; true; true |] in
  let r = Sync.flood_csr ~alive (Csr.of_graph g) ~source:0 in
  check_int "blocked at crash" 2 r.Sync.reached;
  check_bool "incomplete" false r.Sync.covers_all_alive

let test_message_bound_matches () =
  List.iter
    (fun g -> check_int "bound" (Sync.message_bound (Csr.of_graph g)) (Sync.flood_csr (Csr.of_graph g) ~source:0).Sync.messages)
    [ Generators.cycle 10; Generators.complete 7; petersen (); Generators.grid ~rows:3 ~cols:4 ]

let test_lhg_flood_is_logarithmic () =
  (* rounds on an LHG stay around 2 log_{k-1} n while Harary needs ~n/k *)
  let b = Lhg_core.Build.kdiamond_exn ~n:302 ~k:4 in
  let lhg_rounds = (Sync.flood_csr (Csr.of_graph b.Lhg_core.Build.graph) ~source:0).Sync.rounds in
  let h = Harary.make ~k:4 ~n:302 in
  let harary_rounds = (Sync.flood_csr (Csr.of_graph h) ~source:0).Sync.rounds in
  check_bool "lhg small" true (lhg_rounds <= 12);
  check_bool "harary large" true (harary_rounds >= 60);
  check_bool "dominance" true (harary_rounds > 4 * lhg_rounds)

let suite =
  [
    Alcotest.test_case "cycle" `Quick test_cycle;
    Alcotest.test_case "complete" `Quick test_complete;
    Alcotest.test_case "star" `Quick test_star_from_center_and_leaf;
    Alcotest.test_case "disconnected" `Quick test_disconnected;
    Alcotest.test_case "alive mask" `Quick test_alive_mask;
    Alcotest.test_case "message bound" `Quick test_message_bound_matches;
    Alcotest.test_case "lhg vs harary rounds" `Quick test_lhg_flood_is_logarithmic;
  ]
