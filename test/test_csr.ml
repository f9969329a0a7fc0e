(* CSR snapshots must be observationally equal to the Set-backed graph
   they were frozen from: same degrees, same (sorted) neighbour rows,
   same edge membership, and BFS over either representation must agree
   — including under an [?alive] mask and across workspace reuse. *)

open Helpers
module Graph = Graph_core.Graph
module Csr = Graph_core.Csr
module Bfs = Graph_core.Bfs
module Generators = Graph_core.Generators

let random_graph seed = Generators.gnp (Graph_core.Prng.create ~seed) ~n:30 ~p:0.15

(* -- unit tests on fixtures ------------------------------------------- *)

let test_empty () =
  let c = Csr.of_graph (Graph.create ~n:0) in
  check_int "n" 0 (Csr.n c);
  check_int "m" 0 (Csr.m c)

let test_petersen_basic () =
  let g = petersen () in
  let c = Csr.of_graph g in
  check_int "n" 10 (Csr.n c);
  check_int "m" 15 (Csr.m c);
  check_int "degree_sum" 30 (Csr.degree_sum c);
  for v = 0 to 9 do
    check_int "degree" (Graph.degree g v) (Csr.degree c v)
  done

let test_edges_round_trip () =
  let g = barbell () in
  let c = Csr.of_graph g in
  let acc = ref [] in
  Csr.iter_edges c (fun u v -> acc := (u, v) :: !acc);
  Alcotest.(check (list (pair int int))) "edge list" (sorted_edges g) (List.sort compare !acc)

let test_mem_edge_fixture () =
  let g = house () in
  let c = Csr.of_graph g in
  check_bool "chord present" true (Csr.mem_edge c 0 2);
  check_bool "symmetric" true (Csr.mem_edge c 2 0);
  check_bool "non-edge" false (Csr.mem_edge c 1 3)

(* -- properties: CSR vs Set agreement --------------------------------- *)

let prop_rows_sorted_and_match =
  qcheck "rows are sorted and equal the Set adjacency" QCheck2.Gen.(int_bound 1000) (fun seed ->
      let g = random_graph seed in
      let c = Csr.of_graph g in
      let ok = ref (Csr.n c = Graph.n g && Csr.m c = Graph.m g) in
      for v = 0 to Graph.n g - 1 do
        let row = Csr.fold_neighbors c v ~init:[] ~f:(fun acc w -> w :: acc) in
        let row = List.rev row in
        if row <> List.sort compare row then ok := false;
        if row <> Graph.neighbors g v then ok := false
      done;
      !ok)

let prop_mem_edge_agrees =
  qcheck "mem_edge agrees with has_edge on every pair" QCheck2.Gen.(int_bound 1000)
    (fun seed ->
      let g = random_graph seed in
      let c = Csr.of_graph g in
      let ok = ref true in
      for u = 0 to Graph.n g - 1 do
        for v = 0 to Graph.n g - 1 do
          if u <> v && Csr.mem_edge c u v <> Graph.has_edge g u v then ok := false
        done
      done;
      !ok)

let prop_bfs_distances_agree =
  qcheck "csr_distances = distances" QCheck2.Gen.(int_bound 1000) (fun seed ->
      let g = random_graph seed in
      let c = Csr.of_graph g in
      Bfs.csr_distances c ~src:0 = Bfs.distances g ~src:0)

let prop_bfs_distances_agree_masked =
  qcheck "csr_distances = distances under alive mask" QCheck2.Gen.(int_bound 1000)
    (fun seed ->
      let g = random_graph seed in
      let c = Csr.of_graph g in
      (* kill a deterministic pseudo-random subset, keeping the source *)
      let rng = Graph_core.Prng.create ~seed:(seed lxor 0x5EED) in
      let alive = Array.init (Graph.n g) (fun v -> v = 0 || Graph_core.Prng.int rng 4 > 0) in
      Bfs.csr_distances ~alive c ~src:0 = Bfs.distances ~alive g ~src:0)

let prop_bfs_parents_agree =
  qcheck "csr_distances_and_parents = distances_and_parents" QCheck2.Gen.(int_bound 1000)
    (fun seed ->
      let g = random_graph seed in
      let c = Csr.of_graph g in
      Bfs.csr_distances_and_parents c ~src:0 = Bfs.distances_and_parents g ~src:0)

let prop_workspace_reuse =
  qcheck "one workspace reused across graphs of different sizes"
    QCheck2.Gen.(int_bound 1000)
    (fun seed ->
      let ws = Bfs.Workspace.create () in
      let sizes = [ 40; 7; 25 ] in
      List.for_all
        (fun nv ->
          let g = Generators.gnp (Graph_core.Prng.create ~seed:(seed + nv)) ~n:nv ~p:0.2 in
          let c = Csr.of_graph g in
          let expect = Bfs.distances g ~src:0 in
          let d = Bfs.csr_distances_into ws c ~src:0 in
          (* only the first [nv] entries of a workspace array are live *)
          Array.for_all (fun v -> d.(v) = expect.(v)) (Array.init nv Fun.id))
        sizes)

(* Past 2^17 nodes, built straight from the LHG shape with no
   Set-backed intermediate — the million-node path, sized down to stay
   test-suite friendly. It must agree row for row with the frozen
   Set-backed build. *)
let test_direct_build_large () =
  let n = 131_074 and k = 4 in
  let direct = Lhg_core.Build.build_csr_exn Lhg_core.Build.Kdiamond ~n ~k in
  let frozen = Csr.of_graph (Lhg_core.Build.build_exn Lhg_core.Build.Kdiamond ~n ~k).graph in
  check_int "same n" (Csr.n frozen) (Csr.n direct);
  check_int "same m" (Csr.m frozen) (Csr.m direct);
  check_int "degree sum" (2 * Csr.m direct) (Csr.degree_sum direct);
  let rows_equal = ref true in
  for v = 0 to Csr.n direct - 1 do
    if Csr.neighbors direct v <> Csr.neighbors frozen v then rows_equal := false
  done;
  check_bool "identical rows" true !rows_equal;
  let d = Bfs.csr_distances direct ~src:0 in
  check_bool "connected" true (Array.for_all (fun x -> x >= 0) d);
  Alcotest.(check (array int)) "BFS agrees" (Bfs.csr_distances frozen ~src:0) d

let suite =
  [
    Alcotest.test_case "empty graph" `Quick test_empty;
    Alcotest.test_case "petersen basics" `Quick test_petersen_basic;
    Alcotest.test_case "edges round trip" `Quick test_edges_round_trip;
    Alcotest.test_case "mem_edge on fixture" `Quick test_mem_edge_fixture;
    prop_rows_sorted_and_match;
    prop_mem_edge_agrees;
    prop_bfs_distances_agree;
    prop_bfs_distances_agree_masked;
    prop_bfs_parents_agree;
    prop_workspace_reuse;
    Alcotest.test_case "direct build at 131k nodes" `Slow test_direct_build_large;
  ]
