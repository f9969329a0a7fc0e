open Helpers
module Graph = Graph_core.Graph
module Paths = Graph_core.Paths
module Csr = Graph_core.Csr
module Generators = Graph_core.Generators

let test_diameter_path () =
  check_int_opt "P5" (Some 4) (Paths.diameter (Generators.path_graph 5))

let test_diameter_cycle () =
  check_int_opt "C6" (Some 3) (Paths.diameter (Generators.cycle 6));
  check_int_opt "C7" (Some 3) (Paths.diameter (Generators.cycle 7))

let test_diameter_complete () =
  check_int_opt "K5" (Some 1) (Paths.diameter (Generators.complete 5))

let test_diameter_petersen () = check_int_opt "petersen" (Some 2) (Paths.diameter (petersen ()))

let test_diameter_disconnected () =
  check_int_opt "disconnected" None (Paths.diameter (Graph.of_edges ~n:3 [ (0, 1) ]))

let test_diameter_single_vertex () =
  check_int_opt "K1" (Some 0) (Paths.diameter (Graph.create ~n:1))

let test_radius_path () =
  check_int_opt "P5 radius" (Some 2) (Paths.radius (Generators.path_graph 5))

let test_radius_star () =
  check_int_opt "star radius" (Some 1) (Paths.radius (Generators.star 7));
  check_int_opt "star diameter" (Some 2) (Paths.diameter (Generators.star 7))

let test_grid_diameter () =
  check_int_opt "4x6 grid" (Some 8) (Paths.diameter (Generators.grid ~rows:4 ~cols:6))

let test_apl_complete () =
  match Paths.average_path_length (Generators.complete 6) with
  | Some apl -> Alcotest.(check (float 1e-9)) "K6 apl" 1.0 apl
  | None -> Alcotest.fail "connected"

let test_apl_path () =
  (* P3: ordered pairs distances: (0,1)=1 (0,2)=2 (1,2)=1 + symmetric -> mean 4/3 *)
  match Paths.average_path_length (Generators.path_graph 3) with
  | Some apl -> Alcotest.(check (float 1e-9)) "P3 apl" (4.0 /. 3.0) apl
  | None -> Alcotest.fail "connected"

let test_alive_mask () =
  let g = Generators.cycle 6 in
  let alive = [| true; true; true; true; true; false |] in
  (* killing one cycle vertex leaves P5 *)
  check_int_opt "masked diameter" (Some 4) (Paths.diameter ~alive g)

let test_eccentricities () =
  let e = Paths.eccentricities (Generators.path_graph 4) in
  Alcotest.(check (array (option int))) "P4" [| Some 3; Some 2; Some 2; Some 3 |] e

let test_diameter_lower_bound () =
  let g = Generators.cycle 10 in
  let lb = Paths.diameter_lower_bound g ~seeds:[ 0; 3 ] in
  check_bool "sound" true (lb <= 5);
  check_int "cycle ecc" 5 lb

let test_diameter_lower_bound_disconnected () =
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Paths.diameter_lower_bound: graph is disconnected") (fun () ->
      ignore (Paths.diameter_lower_bound (Graph.of_edges ~n:3 [ (0, 1) ]) ~seeds:[ 0 ]))

let prop_radius_diameter_inequality =
  qcheck "radius <= diameter <= 2*radius" QCheck2.Gen.(int_bound 1000) (fun seed ->
      let rng = Graph_core.Prng.create ~seed in
      let g = Generators.gnp rng ~n:20 ~p:0.3 in
      match (Paths.radius g, Paths.diameter g) with
      | Some r, Some d -> r <= d && d <= 2 * r
      | None, None -> true
      | _ -> false)

(* [diameter_at_most_csr] equals the reference at every bound from −1 to
   one past the diameter (to n when there is none), on both CSR
   backends. *)
let cover_agrees g =
  let expected = reference_diameter g in
  let top = match expected with Some d -> d + 1 | None -> Graph.n g in
  List.for_all
    (fun big ->
      let csr = Csr.of_graph ~big g in
      List.for_all
        (fun bound ->
          Paths.diameter_at_most_csr csr ~bound
          = match expected with Some d -> d <= bound | None -> false)
        (List.init (top + 2) (fun i -> i - 1)))
    [ false; true ]

let test_cover_small () =
  List.iter
    (fun (name, g) -> check_bool name true (cover_agrees g))
    [
      ("n=0", Graph.create ~n:0);
      ("n=1", Graph.create ~n:1);
      ("n=2 edge", Graph.of_edges ~n:2 [ (0, 1) ]);
      ("n=2 no edge", Graph.create ~n:2);
    ]

let prop_cover_gnp =
  qcheck ~count:200 "diameter_at_most_csr = reference on G(n,p)"
    QCheck2.Gen.(triple (int_bound 10_000) (int_bound 40) (float_range 0.02 0.5))
    (fun (seed, n, p) -> cover_agrees (Generators.gnp (Graph_core.Prng.create ~seed) ~n ~p))

(* Every registry family at a few (n, k), as built and with a pendant
   path of D + 1 − ecc(a) vertices at a drawn vertex a: its tip is the
   one path vertex whose eccentricity, D + 1, exceeds the family's
   diameter D. *)
let prop_cover_registry =
  qcheck ~count:12 "diameter_at_most_csr = reference on registry families, intact or with a pendant path"
    QCheck2.Gen.(pair (oneofl [ (46, 4); (98, 3); (64, 5); (200, 4) ]) (int_bound 10_000))
    (fun ((n, k), seed) ->
      let rng = Graph_core.Prng.create ~seed in
      List.for_all
        (fun (_, g) ->
          cover_agrees g
          &&
          match reference_diameter g with
          | None -> true
          | Some d ->
              let at = Graph_core.Prng.int rng (Graph.n g) in
              let ea = Option.get (reference_eccentricity g at) in
              let g' = with_pendant_path g ~at ~length:(d + 1 - ea) in
              reference_diameter g' = Some (d + 1) && cover_agrees g')
        (registry_graphs ~n ~k ~seed))

let suite =
  [
    Alcotest.test_case "diameter path" `Quick test_diameter_path;
    Alcotest.test_case "diameter cycle" `Quick test_diameter_cycle;
    Alcotest.test_case "diameter complete" `Quick test_diameter_complete;
    Alcotest.test_case "diameter petersen" `Quick test_diameter_petersen;
    Alcotest.test_case "diameter disconnected" `Quick test_diameter_disconnected;
    Alcotest.test_case "diameter single vertex" `Quick test_diameter_single_vertex;
    Alcotest.test_case "radius path" `Quick test_radius_path;
    Alcotest.test_case "radius star" `Quick test_radius_star;
    Alcotest.test_case "grid diameter" `Quick test_grid_diameter;
    Alcotest.test_case "apl complete" `Quick test_apl_complete;
    Alcotest.test_case "apl path" `Quick test_apl_path;
    Alcotest.test_case "alive mask" `Quick test_alive_mask;
    Alcotest.test_case "eccentricities" `Quick test_eccentricities;
    Alcotest.test_case "diameter lower bound" `Quick test_diameter_lower_bound;
    Alcotest.test_case "lower bound disconnected" `Quick test_diameter_lower_bound_disconnected;
    prop_radius_diameter_inequality;
    Alcotest.test_case "diameter_at_most_csr on n <= 2" `Quick test_cover_small;
    prop_cover_gnp;
    prop_cover_registry;
  ]
