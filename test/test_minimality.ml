open Helpers
module Graph = Graph_core.Graph
module Minimality = Graph_core.Minimality
module Generators = Graph_core.Generators

let test_cycle_minimal_k2 () =
  check_bool "C8 minimal at k=2" true (Minimality.is_link_minimal (Generators.cycle 8) ~k:2)

let test_cycle_plus_chord_not_minimal () =
  let g = Generators.cycle 8 in
  Graph.add_edge g 0 4;
  check_bool "chord breaks minimality" false (Minimality.is_link_minimal g ~k:2);
  let bad = Minimality.non_critical_edges g ~k:2 in
  check_bool "chord among non-critical" true (List.mem (0, 4) bad)

let test_complete_minimal () =
  (* K5 is 4-connected and removing any edge drops kappa(u,v) to 3 *)
  check_bool "K5 minimal at k=4" true (Minimality.is_link_minimal (Generators.complete 5) ~k:4)

let test_tree_minimal_k1 () =
  check_bool "P6 minimal at k=1" true
    (Minimality.is_link_minimal (Generators.path_graph 6) ~k:1)

let test_petersen_minimal () =
  check_bool "petersen minimal at k=3" true (Minimality.is_link_minimal (petersen ()) ~k:3)

let test_edge_is_critical_specific () =
  let g = Generators.cycle 8 in
  Graph.add_edge g 0 4;
  check_bool "cycle edge critical" true (Minimality.edge_is_critical g ~k:2 0 1);
  check_bool "chord not critical" false (Minimality.edge_is_critical g ~k:2 0 4)

let test_edge_absent_rejected () =
  let g = Generators.cycle 5 in
  Alcotest.check_raises "absent edge" (Invalid_argument "Minimality.edge_is_critical: edge absent")
    (fun () -> ignore (Minimality.edge_is_critical g ~k:2 0 2))

let test_non_critical_empty_on_minimal () =
  Alcotest.(check (list (pair int int))) "no slack edges" []
    (Minimality.non_critical_edges (Generators.cycle 6) ~k:2)

(* The literal definition on the reference flow: removing uv leaves
   λ(u,v) < k or κ(u,v) < k. *)
let reference_critical g ~k u v =
  let g' = Graph.without_edge g u v in
  reference_edge_connectivity_st g' ~s:u ~t:v < k || reference_vertex_connectivity g' ~s:u ~t:v < k

let matches_reference g ~k =
  let bad = Minimality.non_critical_edges g ~k in
  List.for_all
    (fun (u, v) ->
      let critical = Minimality.edge_is_critical g ~k u v in
      critical = reference_critical g ~k u v && critical = not (List.mem (u, v) bad))
    (Graph.edges g)

(* Every edge of G(n,p) graphs, and of every registry family with 0-3
   edges planted between non-adjacent vertices (the planted ones have
   both endpoints above degree k, so they take the probe). *)
let prop_critical_matches_reference =
  qcheck ~count:40 "edge_is_critical = reference on every edge (gnp, planted registry)"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rngv = Graph_core.Prng.create ~seed in
      let n = 2 + Graph_core.Prng.int rngv 14 in
      let g = Generators.gnp rngv ~n ~p:(0.2 +. Graph_core.Prng.float rngv 0.7) in
      let k = 1 + Graph_core.Prng.int rngv 4 in
      matches_reference g ~k
      && List.for_all
           (fun (_, g) -> matches_reference (with_planted_edges rngv g (seed mod 4)) ~k:3)
           (registry_graphs ~n:16 ~k:3 ~seed))

(* P3 at scale: every kdiamond edge has an endpoint of degree k, so the
   sweep is a degree scan; an edge planted between two non-adjacent
   degree-4 vertices is the one edge a probe finds non-critical. *)
let test_minimality_at_scale () =
  let g = (Lhg_core.Build.kdiamond_exn ~n:16386 ~k:4).Lhg_core.Build.graph in
  check_bool "kdiamond n=16386 link-minimal" true (Minimality.is_link_minimal g ~k:4);
  (* endpoints whose neighbours all have degree 4, so the planted edge
     is the only one with both endpoints above it *)
  let quiet v = List.for_all (fun w -> Graph.degree g w = 4) (v :: Graph.neighbors g v) in
  let u = List.find quiet (List.init 16386 (fun i -> 16385 - i)) in
  let v = List.find (fun v -> v <> u && quiet v && not (Graph.has_edge g u v)) (List.init 16386 Fun.id) in
  let g' = Graph.copy g in
  Graph.add_edge g' u v;
  check_bool "planted edge breaks minimality" false (Minimality.is_link_minimal g' ~k:4);
  Alcotest.(check (list (pair int int))) "the planted edge" [ (min u v, max u v) ]
    (Minimality.non_critical_edges g' ~k:4)

let suite =
  [
    Alcotest.test_case "cycle minimal k=2" `Quick test_cycle_minimal_k2;
    Alcotest.test_case "chord not minimal" `Quick test_cycle_plus_chord_not_minimal;
    Alcotest.test_case "complete minimal" `Quick test_complete_minimal;
    Alcotest.test_case "tree minimal k=1" `Quick test_tree_minimal_k1;
    Alcotest.test_case "petersen minimal" `Quick test_petersen_minimal;
    Alcotest.test_case "edge_is_critical" `Quick test_edge_is_critical_specific;
    Alcotest.test_case "absent edge rejected" `Quick test_edge_absent_rejected;
    Alcotest.test_case "non_critical empty" `Quick test_non_critical_empty_on_minimal;
    prop_critical_matches_reference;
    Alcotest.test_case "link minimality at n=16386, one planted edge" `Slow test_minimality_at_scale;
  ]
