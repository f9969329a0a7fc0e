(* Menger witnesses from the engine's probes: pair paths and fans. *)
open Helpers
module Graph = Graph_core.Graph
module Connectivity = Graph_core.Connectivity
module Csr = Graph_core.Csr
module Generators = Graph_core.Generators
module Prng = Graph_core.Prng

let pair_paths ?k g s t =
  let k = Option.value k ~default:(Graph.n g) in
  Connectivity.pair_paths (Connectivity.probe (Csr.of_graph g)) ~k s t

let check_paths_valid g paths ~s ~t =
  List.iter
    (fun p ->
      (match p with
      | first :: _ -> check_int "starts at s" s first
      | [] -> Alcotest.fail "empty path");
      check_int "ends at t" t (List.nth p (List.length p - 1));
      check_bool "edges exist" true (is_path g p))
    paths;
  check_bool "internally disjoint" true (internally_disjoint paths)

let test_vertex_disjoint_petersen () =
  let g = petersen () in
  let paths = pair_paths g 0 7 in
  check_int "three paths" 3 (List.length paths);
  check_paths_valid g paths ~s:0 ~t:7

let test_vertex_disjoint_adjacent () =
  let g = Generators.complete 5 in
  let paths = pair_paths g 0 1 in
  check_int "K5 adjacent pair" 4 (List.length paths);
  check_bool "direct edge included" true (List.mem [ 0; 1 ] paths);
  check_paths_valid g paths ~s:0 ~t:1

let test_limit () =
  let g = Generators.complete 6 in
  check_int "capped at 2" 2 (List.length (pair_paths ~k:2 g 0 3))

let test_bridge () =
  let g = barbell () in
  let paths = pair_paths g 0 5 in
  check_int "single path over bridge" 1 (List.length paths);
  check_paths_valid g paths ~s:0 ~t:5

let test_no_path () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  check_int "none" 0 (List.length (pair_paths g 0 2))

let test_same_vertex_rejected () =
  let g = Generators.cycle 4 in
  Alcotest.check_raises "s=t" (Invalid_argument "Connectivity.pair_paths: s = t") (fun () ->
      ignore (pair_paths g 1 1))

let random_connected seed =
  let rngv = Prng.create ~seed in
  let n = 6 + Prng.int rngv 6 in
  let g = Generators.gnp rngv ~n ~p:0.5 in
  (* splice in a Hamiltonian cycle to guarantee connectivity *)
  for v = 0 to n - 1 do
    Graph.add_edge g v ((v + 1) mod n)
  done;
  g

let prop_vertex_paths_match_kappa =
  qcheck ~count:80 "vertex-disjoint family matches local kappa" QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let g = random_connected seed in
      let n = Graph.n g in
      let s = 0 and t = n / 2 in
      let paths = pair_paths g s t in
      List.length paths = reference_vertex_connectivity g ~s ~t
      && internally_disjoint paths
      && List.for_all (fun p -> List.hd p = s && List.nth p (List.length p - 1) = t && is_path g p) paths)

(* A fan to u from the hubs 0 … k−1 exactly when the reference finds k
   paths from a super-source over the hubs to u; each path runs from
   its own hub, in hub order, and the paths share only u. *)
let prop_fans_match_reference =
  qcheck ~count:80 "fans from the hubs match the reference" QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let g = random_connected seed in
      let n = Graph.n g in
      let k = 2 + (seed mod 3) in
      let pr = Connectivity.probe (Csr.of_graph g) in
      let super = 2 * n in
      let net =
        network ~nodes:(super + 1)
          (List.init n (fun v -> (2 * v, (2 * v) + 1, 1))
          @ List.concat_map (fun (u, v) -> [ ((2 * u) + 1, 2 * v, 1); ((2 * v) + 1, 2 * u, 1) ]) (Graph.edges g)
          @ List.init k (fun h -> (super, 2 * h, 1)))
      in
      List.for_all
        (fun u ->
          let fan = Connectivity.fan_paths pr ~k u in
          let hubs = List.map List.hd fan in
          List.length fan = min k (reference_flow ~limit:k net ~s:super ~t:(2 * u))
          && hubs = List.sort_uniq compare hubs
          && List.for_all (fun h -> h < k) hubs
          && List.for_all (fun p -> List.nth p (List.length p - 1) = u && is_path g p) fan
          && internally_disjoint fan)
        (List.init (n - k) (fun i -> k + i)))

let suite =
  [
    Alcotest.test_case "vertex disjoint petersen" `Quick test_vertex_disjoint_petersen;
    Alcotest.test_case "vertex disjoint adjacent" `Quick test_vertex_disjoint_adjacent;
    Alcotest.test_case "limit" `Quick test_limit;
    Alcotest.test_case "bridge" `Quick test_bridge;
    Alcotest.test_case "no path" `Quick test_no_path;
    Alcotest.test_case "same vertex rejected" `Quick test_same_vertex_rejected;
    prop_vertex_paths_match_kappa;
    prop_fans_match_reference;
  ]
