(* Coverage for exposed API corners not exercised elsewhere. *)
open Helpers
module Graph = Graph_core.Graph
module Generators = Graph_core.Generators
module Connectivity = Graph_core.Connectivity
module Paths = Graph_core.Paths
module Sim = Netsim.Sim
module Network = Netsim.Network
module Csr = Graph_core.Csr

(* One exposed probe serves many queries on one snapshot: its flows and
   marks are generation-stamped, so no query needs a reset. *)
let test_exposed_flow_networks () =
  let g = petersen () in
  let pr = Connectivity.probe (Graph_core.Csr.of_graph g) in
  List.iter
    (fun (s, t) ->
      check_int (Printf.sprintf "kappa(%d,%d)" s t) 3 (List.length (Connectivity.pair_paths pr ~k:10 s t)))
    [ (0, 7); (1, 8); (2, 6); (0, 1); (0, 7) ];
  check_int "fan of 7 from hubs 0-2" 3 (List.length (Connectivity.fan_paths pr ~k:3 7));
  check_int "kappa(0,7) after the fan" 3 (List.length (Connectivity.pair_paths pr ~k:10 0 7))

let test_apl_with_mask () =
  let g = Generators.cycle 6 in
  let alive = [| true; true; true; true; true; false |] in
  (* masked C6 is P5: mean over ordered pairs = 2 * (4*1+3*2+2*3+1*4) / 20 = 2 *)
  match Paths.average_path_length ~alive g with
  | Some apl -> Alcotest.(check (float 1e-9)) "masked apl" 2.0 apl
  | None -> Alcotest.fail "masked cycle is connected"

let test_apl_disconnected_none () =
  let g = Graph.of_edges ~n:4 [ (0, 1) ] in
  check_bool "no apl" true (Paths.average_path_length g = None)

let test_network_accessors () =
  let sim = Sim.create () in
  let g = Generators.cycle 4 in
  let net = Network.create ~sim ~csr:(Graph_core.Csr.of_graph g) () in
  check_int "csr accessor" 4 (Graph_core.Csr.n (Network.csr net));
  check_bool "sim accessor" true (Sim.now (Network.sim net) = 0.0)

let test_sim_until_boundary_inclusive () =
  let sim = Sim.create () in
  let fired = ref false in
  Sim.schedule sim ~delay:2.0 (fun () -> fired := true);
  Sim.run ~until:2.0 sim;
  check_bool "event at the boundary runs" true !fired

let test_degree_single_vertex () =
  let s = Graph_core.Degree.stats (Graph.create ~n:1) in
  check_int "min" 0 s.Graph_core.Degree.min_degree;
  Alcotest.(check (list (pair int int))) "histogram" [ (0, 1) ] s.Graph_core.Degree.histogram

let test_overlay_printers () =
  let d =
    Overlay.Diff.edges ~old_graph:(Generators.cycle 4)
      ~new_graph:(Generators.path_graph 4)
  in
  let str = Format.asprintf "%a" Overlay.Diff.pp d in
  check_bool "diff renders" true (String.length str > 5);
  let rngv = rng () in
  match Overlay.Churn.run rngv ~family:Overlay.Membership.Kdiamond ~k:3 ~n0:8 ~steps:5 () with
  | Ok s ->
      let str = Format.asprintf "%a" Overlay.Churn.pp_stats s in
      check_bool "churn renders" true (String.length str > 10)
  | Error e -> Alcotest.fail (Overlay.Error.to_string e)

let test_build_pp_error_variants () =
  List.iter
    (fun e -> check_bool "renders" true (String.length (Lhg_core.Build.error_to_string e) > 5))
    [
      Lhg_core.Build.K_too_small 1;
      Lhg_core.Build.N_too_small { n = 3; minimum = 6 };
      Lhg_core.Build.Jd_gap { n = 7; k = 3; j = 1; capacity = 0 };
    ]

let test_shape_pp () =
  let s = Format.asprintf "%a" Lhg_core.Shape.pp (Lhg_core.Shape.base ~k:3) in
  check_bool "mentions vertices" true (String.length s > 10)

let test_harary_even_diameter_exact () =
  (* even k: formula should be exact, not just close *)
  List.iter
    (fun (k, n) ->
      match Paths.diameter (Harary.make ~k ~n) with
      | Some d -> check_int (Printf.sprintf "H(%d,%d)" k n) d (Harary.diameter_formula ~k ~n)
      | None -> Alcotest.fail "connected")
    [ (2, 12); (4, 20); (4, 64); (6, 36) ]

let test_gossip_latency_model_used () =
  let g = Generators.complete 8 in
  let r =
    Flood.Gossip.run_env ~env:(Flood.Env.make ~latency:(Netsim.Network.constant_latency 3.0) ~seed:1 ()) ~csr:(Csr.of_graph g) ~source:0 ~fanout:7 ~ttl:4 ()
  in
  Alcotest.(check (float 1e-9)) "one 3.0 hop suffices" 3.0 r.Flood.Gossip.completion_time

let suite =
  [
    Alcotest.test_case "exposed flow networks" `Quick test_exposed_flow_networks;
    Alcotest.test_case "apl with mask" `Quick test_apl_with_mask;
    Alcotest.test_case "apl disconnected" `Quick test_apl_disconnected_none;
    Alcotest.test_case "network accessors" `Quick test_network_accessors;
    Alcotest.test_case "sim until boundary" `Quick test_sim_until_boundary_inclusive;
    Alcotest.test_case "degree single vertex" `Quick test_degree_single_vertex;
    Alcotest.test_case "overlay printers" `Quick test_overlay_printers;
    Alcotest.test_case "build error printers" `Quick test_build_pp_error_variants;
    Alcotest.test_case "shape pp" `Quick test_shape_pp;
    Alcotest.test_case "harary even diameter exact" `Quick test_harary_even_diameter_exact;
    Alcotest.test_case "gossip latency model" `Quick test_gossip_latency_model_used;
  ]
