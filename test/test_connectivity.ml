open Helpers
module Graph = Graph_core.Graph
module Connectivity = Graph_core.Connectivity
module Components = Graph_core.Components
module Generators = Graph_core.Generators
module Prng = Graph_core.Prng
module Csr = Graph_core.Csr

(* Exhaustive reference implementations, usable for small n / m. *)

let subsets_of_size xs size =
  let rec go xs size =
    if size = 0 then [ [] ]
    else
      match xs with
      | [] -> []
      | x :: rest -> List.map (fun s -> x :: s) (go rest (size - 1)) @ go rest size
  in
  go xs size

let brute_vertex_connectivity g =
  let n = Graph.n g in
  if n <= 1 then 0
  else begin
    let vertices = List.init n Fun.id in
    let rec try_size size =
      if size >= n - 1 then n - 1
      else begin
        let disconnects cut =
          let alive = Array.make n true in
          List.iter (fun v -> alive.(v) <- false) cut;
          not (Components.is_connected ~alive g)
        in
        if List.exists disconnects (subsets_of_size vertices size) then size else try_size (size + 1)
      end
    in
    try_size 0
  end

let brute_edge_connectivity g =
  let n = Graph.n g in
  if n <= 1 then 0
  else begin
    let edges = Graph.edges g in
    let rec try_size size =
      if size > List.length edges then List.length edges
      else begin
        let disconnects cut =
          let g' = Graph.copy g in
          List.iter (fun (u, v) -> Graph.remove_edge g' u v) cut;
          not (Components.is_connected g')
        in
        if List.exists disconnects (subsets_of_size edges size) then size else try_size (size + 1)
      end
    in
    try_size 0
  end

let test_known_vertex_connectivity () =
  List.iter
    (fun (name, g, expected) ->
      check_int name expected (Connectivity.vertex_connectivity g))
    [
      ("path", Generators.path_graph 6, 1);
      ("cycle", Generators.cycle 7, 2);
      ("complete K5", Generators.complete 5, 4);
      ("K1", Graph.create ~n:1, 0);
      ("K2", Generators.complete 2, 1);
      ("star", Generators.star 6, 1);
      ("K(3,4)", Generators.complete_bipartite 3 4, 3);
      ("petersen", petersen (), 3);
      ("disconnected", Graph.of_edges ~n:4 [ (0, 1); (2, 3) ], 0);
      ("barbell (cut vertex)", barbell (), 1);
    ]

let test_known_edge_connectivity () =
  List.iter
    (fun (name, g, expected) -> check_int name expected (Connectivity.edge_connectivity g))
    [
      ("path", Generators.path_graph 6, 1);
      ("cycle", Generators.cycle 7, 2);
      ("complete K5", Generators.complete 5, 4);
      ("K(3,4)", Generators.complete_bipartite 3 4, 3);
      ("petersen", petersen (), 3);
      ("disconnected", Graph.of_edges ~n:4 [ (0, 1); (2, 3) ], 0);
      ("barbell (bridge)", barbell (), 1);
    ]

(* Local values through the engine's pair probe: κ(s,t) is the number
   of internally disjoint paths it finds, a direct edge counting once. *)
let local_kappa ?k g s t =
  let k = Option.value k ~default:(Graph.n g) in
  List.length (Connectivity.pair_paths (Connectivity.probe (Csr.of_graph g)) ~k s t)

let test_local_vertex_connectivity () =
  let g = petersen () in
  (* 3-regular and vertex-transitive: every pair has exactly 3 disjoint paths *)
  check_int "non-adjacent pair" 3 (local_kappa g 0 7);
  check_int "adjacent pair" 3 (local_kappa g 0 1)

let test_local_limit () =
  let g = Generators.complete 8 in
  check_int "capped" 3 (local_kappa ~k:3 g 0 7)

let test_decision_forms () =
  let g = petersen () in
  check_bool "3-vertex-connected" true (Connectivity.is_k_vertex_connected g ~k:3);
  check_bool "not 4-vertex-connected" false (Connectivity.is_k_vertex_connected g ~k:4);
  check_bool "3-edge-connected" true (Connectivity.is_k_edge_connected g ~k:3);
  check_bool "not 4-edge-connected" false (Connectivity.is_k_edge_connected g ~k:4)

let test_decision_degenerate () =
  let g = Generators.complete 4 in
  check_bool "k=0 true" true (Connectivity.is_k_vertex_connected g ~k:0);
  check_bool "k=n-1 complete" true (Connectivity.is_k_vertex_connected g ~k:3);
  check_bool "k=n impossible" false (Connectivity.is_k_vertex_connected g ~k:4);
  check_bool "edge k=0" true (Connectivity.is_k_edge_connected g ~k:0)

let test_whitney_inequality () =
  (* kappa <= lambda <= delta on assorted fixtures *)
  List.iter
    (fun g ->
      let kappa = Connectivity.vertex_connectivity g in
      let lambda = Connectivity.edge_connectivity g in
      let delta =
        List.fold_left min max_int (List.init (Graph.n g) (fun v -> Graph.degree g v))
      in
      check_bool "kappa<=lambda" true (kappa <= lambda);
      check_bool "lambda<=delta" true (lambda <= delta))
    [ petersen (); barbell (); house (); Generators.cycle 9; Generators.complete_bipartite 2 5 ]

let random_graph seed =
  let rngv = Prng.create ~seed in
  let n = 5 + Prng.int rngv 4 in
  let p = 0.25 +. Prng.float rngv 0.5 in
  Generators.gnp rngv ~n ~p

let prop_vertex_connectivity_matches_brute =
  qcheck ~count:60 "vertex connectivity = brute force" QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let g = random_graph seed in
      Connectivity.vertex_connectivity g = brute_vertex_connectivity g)

let prop_edge_connectivity_matches_brute =
  qcheck ~count:40 "edge connectivity = brute force" QCheck2.Gen.(int_bound 100_000) (fun seed ->
      let rngv = Prng.create ~seed in
      let n = 5 + Prng.int rngv 3 in
      let g = Generators.gnp rngv ~n ~p:0.4 in
      Connectivity.edge_connectivity g = brute_edge_connectivity g)

let prop_decision_agrees_with_exact =
  qcheck ~count:60 "is_k_*_connected agrees with exact values" QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let g = random_graph seed in
      let kappa = reference_kappa g in
      let lambda = reference_lambda g in
      let ok = ref true in
      for k = 0 to Graph.n g do
        if Connectivity.is_k_vertex_connected g ~k <> (kappa >= k && (k = 0 || Graph.n g >= k + 1))
        then ok := false;
        if k > 0 && Connectivity.is_k_edge_connected g ~k <> (lambda >= k) then ok := false
      done;
      !ok)

(* The engine against the reference flow: the
   decisions are true at k = κ (λ) and false at κ + 1 (λ + 1), the
   exact values equal the reference, and each minimum cut has that
   size and disconnects the graph (no vertex cut when complete or
   already disconnected). *)
let decisions_match_exact g =
  let kappa = reference_kappa g in
  let lambda = reference_lambda g in
  let n = Graph.n g in
  let csr = Csr.of_graph g in
  let vc = Connectivity.min_vertex_cut csr and ec = Connectivity.min_edge_cut csr in
  Connectivity.is_k_vertex_connected_csr csr ~k:kappa
  && (not (Connectivity.is_k_vertex_connected_csr csr ~k:(kappa + 1)))
  && Connectivity.is_k_edge_connected_csr csr ~k:lambda
  && (not (Connectivity.is_k_edge_connected_csr csr ~k:(lambda + 1)))
  && Connectivity.vertex_connectivity_csr csr = kappa
  && Connectivity.edge_connectivity_csr csr = lambda
  && (if kappa = 0 || kappa = n - 1 then vc = []
      else List.length vc = kappa && vertices_disconnect g vc)
  && if lambda = 0 then ec = [] else List.length ec = lambda && edges_disconnect g ec

let prop_decision_matches_exact_gnp =
  qcheck ~count:150 "decisions = exact values at kappa, kappa+1 (gnp, n <= 40)"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rngv = Prng.create ~seed in
      let n = 1 + Prng.int rngv 40 in
      let p = 0.05 +. Prng.float rngv 0.85 in
      decisions_match_exact (Generators.gnp rngv ~n ~p))

(* Two dense G(n,p) blobs joined only through [c] bridge vertices, the
   labels shuffled: the small cut can fall anywhere in the BFS order,
   including between two of its first k vertices. *)
let prop_decision_matches_exact_planted =
  qcheck ~count:100 "decisions = exact values on planted small vertex cuts"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rngv = Prng.create ~seed in
      let half = 3 + Prng.int rngv 10 and c = 1 + Prng.int rngv 5 in
      let p = 0.5 +. Prng.float rngv 0.5 in
      let n = (2 * half) + c in
      let side x = if x < half then 0 else if x < 2 * half then 1 else 2 in
      let perm = Prng.permutation rngv n in
      let edges = ref [] in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          let keep =
            if side u = 2 || side v = 2 then side u <> side v && Prng.float rngv 1.0 < 0.7
            else side u = side v && Prng.float rngv 1.0 < p
          in
          if keep then edges := (perm.(u), perm.(v)) :: !edges
        done
      done;
      decisions_match_exact (Graph.of_edges ~n !edges))

let prop_decision_matches_exact_registry =
  qcheck ~count:6 "decisions = exact values on every registry family, 1-3 edges deleted"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rngv = Prng.create ~seed in
      List.for_all
        (fun (n, k) ->
          List.for_all
            (fun (_, g) -> decisions_match_exact (without_random_edges rngv g (1 + Prng.int rngv 3)))
            (registry_graphs ~n ~k ~seed))
        [ (46, 4); (98, 3) ])

(* The registry families as built, and with 1-3 edges planted between
   non-adjacent vertices, so both endpoints of a planted edge have
   degree above the family's k. *)
let prop_exact_matches_reference_registry =
  qcheck ~count:3 "exact values and cuts = reference on registry families, intact or planted"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rngv = Prng.create ~seed in
      List.for_all
        (fun (n, k) ->
          List.for_all
            (fun (_, g) ->
              decisions_match_exact g
              && decisions_match_exact (with_planted_edges rngv g (1 + Prng.int rngv 3)))
            (registry_graphs ~n ~k ~seed))
        [ (46, 4); (98, 3) ])

(* Two kdiamond n = 4098 copies joined through three bridge vertices,
   each with two edges into either copy: minimum degree 4 and every
   edge cut at least 4, but the bridges are a 3-vertex cut. *)
let planted_three_cut () =
  let half = 4098 in
  let copy = (Lhg_core.Build.kdiamond_exn ~n:half ~k:4).Lhg_core.Build.graph in
  let g = Graph.create ~n:((2 * half) + 3) in
  Graph.iter_edges copy (fun u v ->
      Graph.add_edge g u v;
      Graph.add_edge g (u + half) (v + half));
  for b = 0 to 2 do
    let bridge = (2 * half) + b in
    List.iter (fun w -> Graph.add_edge g bridge w) [ 1 + (2 * b); 2 + (2 * b) ];
    List.iter (fun w -> Graph.add_edge g bridge (half + w)) [ 100 + (2 * b); 101 + (2 * b) ]
  done;
  g

let test_decisions_at_scale () =
  let csr = Csr.of_graph (Lhg_core.Build.kdiamond_exn ~n:16386 ~k:4).Lhg_core.Build.graph in
  check_bool "kdiamond n=16386 kappa >= 4" true (Connectivity.is_k_vertex_connected_csr csr ~k:4);
  check_bool "kdiamond n=16386 lambda >= 4" true (Connectivity.is_k_edge_connected_csr csr ~k:4);
  check_bool "kdiamond n=16386 kappa >= 5" false (Connectivity.is_k_vertex_connected_csr csr ~k:5);
  check_bool "kdiamond n=16386 lambda >= 5" false (Connectivity.is_k_edge_connected_csr csr ~k:5);
  let g = planted_three_cut () in
  check_int "planted n" 8199 (Graph.n g);
  let csr = Csr.of_graph g in
  check_bool "planted kappa >= 3" true (Connectivity.is_k_vertex_connected_csr csr ~k:3);
  check_bool "planted kappa >= 4" false (Connectivity.is_k_vertex_connected_csr csr ~k:4);
  check_bool "planted lambda >= 4" true (Connectivity.is_k_edge_connected_csr csr ~k:4)

(* The exact values and the vertex cut at scale: on the planted 3-cut
   the first decision, at δ = 4, fails at a probe whose stuck search
   is the three bridges. *)
let test_exact_at_scale () =
  let csr = Csr.of_graph (planted_three_cut ()) in
  check_int "planted kappa" 3 (Connectivity.vertex_connectivity_csr csr);
  Alcotest.(check (list int)) "planted vertex cut" [ 8196; 8197; 8198 ] (Connectivity.min_vertex_cut csr);
  check_int "planted lambda" 4 (Connectivity.edge_connectivity_csr csr)

let test_min_edge_cut_witness () =
  let g = barbell () in
  Alcotest.(check (list (pair int int))) "the bridge" [ (2, 3) ] (Connectivity.min_edge_cut (Csr.of_graph g));
  let g = Generators.cycle 6 in
  let cut = Connectivity.min_edge_cut (Csr.of_graph g) in
  check_int "two edges" 2 (List.length cut);
  let g' = Graph.copy g in
  List.iter (fun (u, v) -> Graph.remove_edge g' u v) cut;
  check_bool "removal disconnects" false (Components.is_connected g')

let test_min_edge_cut_degenerate () =
  Alcotest.(check (list (pair int int))) "disconnected" []
    (Connectivity.min_edge_cut (Csr.of_graph (Graph.of_edges ~n:4 [ (0, 1) ])));
  Alcotest.(check (list (pair int int))) "single vertex" []
    (Connectivity.min_edge_cut (Csr.of_graph (Graph.create ~n:1)))

let test_min_vertex_cut_witness () =
  let g = barbell () in
  let cut = Connectivity.min_vertex_cut (Csr.of_graph g) in
  check_int "one vertex" 1 (List.length cut);
  check_bool "a bridge endpoint" true (List.for_all (fun v -> v = 2 || v = 3) cut);
  let g = petersen () in
  let cut = Connectivity.min_vertex_cut (Csr.of_graph g) in
  check_int "kappa vertices" 3 (List.length cut);
  let alive = Array.make 10 true in
  List.iter (fun v -> alive.(v) <- false) cut;
  check_bool "removal disconnects" false (Components.is_connected ~alive g)

let test_min_vertex_cut_complete () =
  Alcotest.(check (list int)) "complete graph has none" []
    (Connectivity.min_vertex_cut (Csr.of_graph (Generators.complete 5)))

let prop_min_cuts_are_real_cuts =
  qcheck ~count:50 "extracted cuts disconnect and have minimum size"
    QCheck2.Gen.(int_bound 100_000) (fun seed ->
      let g = random_graph seed in
      let kappa = reference_kappa g in
      let lambda = reference_lambda g in
      let vc_ok =
        let cut = Connectivity.min_vertex_cut (Csr.of_graph g) in
        if kappa = 0 || kappa = Graph.n g - 1 then cut = []
        else begin
          let alive = Array.make (Graph.n g) true in
          List.iter (fun v -> alive.(v) <- false) cut;
          List.length cut = kappa && not (Components.is_connected ~alive g)
        end
      in
      let ec_ok =
        let cut = Connectivity.min_edge_cut (Csr.of_graph g) in
        if lambda = 0 then cut = []
        else begin
          let g2 = Graph.copy g in
          List.iter (fun (u, v) -> Graph.remove_edge g2 u v) cut;
          List.length cut = lambda && not (Components.is_connected g2)
        end
      in
      vc_ok && ec_ok)

let suite =
  [
    Alcotest.test_case "known vertex connectivity" `Quick test_known_vertex_connectivity;
    Alcotest.test_case "known edge connectivity" `Quick test_known_edge_connectivity;
    Alcotest.test_case "local vertex connectivity" `Quick test_local_vertex_connectivity;
    Alcotest.test_case "local limit" `Quick test_local_limit;
    Alcotest.test_case "decision forms" `Quick test_decision_forms;
    Alcotest.test_case "decision degenerate" `Quick test_decision_degenerate;
    Alcotest.test_case "whitney inequality" `Quick test_whitney_inequality;
    Alcotest.test_case "min edge cut witness" `Quick test_min_edge_cut_witness;
    Alcotest.test_case "min edge cut degenerate" `Quick test_min_edge_cut_degenerate;
    Alcotest.test_case "min vertex cut witness" `Quick test_min_vertex_cut_witness;
    Alcotest.test_case "min vertex cut complete" `Quick test_min_vertex_cut_complete;
    prop_min_cuts_are_real_cuts;
    prop_vertex_connectivity_matches_brute;
    prop_edge_connectivity_matches_brute;
    prop_decision_agrees_with_exact;
    prop_decision_matches_exact_gnp;
    prop_decision_matches_exact_planted;
    prop_decision_matches_exact_registry;
    Alcotest.test_case "decisions at n=16386 and a planted 3-cut" `Slow test_decisions_at_scale;
    prop_exact_matches_reference_registry;
    Alcotest.test_case "exact values and cuts on the planted n=8199 3-cut" `Slow test_exact_at_scale;
  ]
