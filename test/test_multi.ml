(* Multi-origin flooding: Traffic.Driver with one chunk per source (the
   periodic arrival at rate 1 injects them all at t = 1), where each
   chunk floods independently under per-(chunk, node) dedup. *)

open Helpers
module Graph = Graph_core.Graph
module Generators = Graph_core.Generators
module Flooding = Flood.Flooding
module Csr = Graph_core.Csr
module Workload = Traffic.Workload
module Driver = Traffic.Driver

let run ?(env = Flood.Env.default) ?(chunks = 1) ?(rate = 1.0) g sources =
  let workload =
    Workload.default |> Workload.with_sources sources |> Workload.with_chunks_per_source chunks
    |> Workload.with_rate rate
  in
  Driver.run_csr_env ~env ~csr:(Csr.of_graph g) ~workload ()

let test_single_matches_flooding () =
  let g = petersen () in
  let m = run g [ 0 ] in
  let f = Flooding.run_csr_env ~env:Flood.Env.default ~csr:(Csr.of_graph g) ~source:0 () in
  check_int "same total messages" f.Flooding.messages_sent m.Driver.wire_messages;
  check_int "all delivered" 10 (m.Driver.deliveries + 1);
  Alcotest.(check (float 1e-9)) "same completion" f.Flooding.completion_time
    m.Driver.completions.(0);
  check_bool "covers" true m.Driver.all_covered

let test_concurrent_publications () =
  let g = Generators.cycle 12 in
  let m = run g [ 0; 6; 3 ] in
  check_bool "all covered" true m.Driver.all_covered;
  check_int "three completions" 3 (Array.length m.Driver.completions);
  (* each payload floods independently: 3x single cost *)
  let single = (Flood.Sync.flood_csr (Csr.of_graph g) ~source:0).Flood.Sync.messages in
  check_int "3x messages" (3 * single) m.Driver.wire_messages

let test_staggered_injection () =
  let g = Generators.cycle 8 in
  (* two chunks per source at rate 0.1: injections at t = 10 and 20 *)
  let m = run ~chunks:2 ~rate:0.1 g [ 0; 4 ] in
  check_bool "sources in workload order" true (m.Driver.sources = [ 0; 4 ]);
  (* completion is injection-relative: every chunk takes the cycle's 4 rounds *)
  Array.iteri
    (fun g c -> Alcotest.(check (float 1e-9)) (Printf.sprintf "chunk %d" g) 4.0 c)
    m.Driver.completions;
  check_bool "covered" true m.Driver.all_covered

let test_crashes_affect_all_payloads () =
  let g = Generators.path_graph 5 in
  let m = run ~env:(Flood.Env.make ~crashed:[ 2 ] ()) g [ 0; 4 ] in
  check_bool "neither covers" false m.Driver.all_covered;
  (* each chunk reaches its own side only: the source and one neighbour *)
  check_int "only own side" 2 m.Driver.deliveries;
  check_bool "half the alive pairs" true (m.Driver.delivery_fraction = 0.5)

let test_duplicate_ids_rejected () =
  let g = Generators.cycle 4 in
  Alcotest.check_raises "duplicate sources" (Invalid_argument "Traffic.run: duplicate sources")
    (fun () -> ignore (run g [ 0; 0 ]))

let test_crashed_origin_rejected () =
  let g = Generators.cycle 4 in
  Alcotest.check_raises "crashed origin"
    (Invalid_argument "Traffic.run: source 1 is crashed at t = 0") (fun () ->
      ignore (run ~env:(Flood.Env.make ~crashed:[ 1 ] ()) g [ 1 ]))

let test_many_publications_on_lhg () =
  let b = Lhg_core.Build.kdiamond_exn ~n:26 ~k:4 in
  let g = b.Lhg_core.Build.graph in
  let m = run ~env:(Flood.Env.make ~crashed:[ 25 ] ()) g (List.init 10 (fun i -> i * 2)) in
  check_bool "all covered despite crash" true m.Driver.all_covered

let suite =
  [
    Alcotest.test_case "single matches flooding" `Quick test_single_matches_flooding;
    Alcotest.test_case "concurrent publications" `Quick test_concurrent_publications;
    Alcotest.test_case "staggered injection" `Quick test_staggered_injection;
    Alcotest.test_case "crashes affect all" `Quick test_crashes_affect_all_payloads;
    Alcotest.test_case "duplicate ids rejected" `Quick test_duplicate_ids_rejected;
    Alcotest.test_case "crashed origin rejected" `Quick test_crashed_origin_rejected;
    Alcotest.test_case "many publications on LHG" `Quick test_many_publications_on_lhg;
  ]
