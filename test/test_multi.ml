open Helpers
module Graph = Graph_core.Graph
module Generators = Graph_core.Generators
module Multi = Flood.Multi
module Flooding = Flood.Flooding
module Csr = Graph_core.Csr

let pub ?(t = 0.0) origin id = { Multi.origin; inject_time = t; payload_id = id }

let test_single_matches_flooding () =
  let g = petersen () in
  let m = Multi.run_env ~env:Flood.Env.default ~csr:(Csr.of_graph g) ~publications:[ pub 0 1 ] () in
  let f = Flooding.run_csr_env ~env:Flood.Env.default ~csr:(Csr.of_graph g) ~source:0 () in
  check_int "same total messages" f.Flooding.messages_sent m.Multi.total_messages;
  match m.Multi.per_message with
  | [ s ] ->
      check_int "all delivered" 10 s.Multi.delivered_count;
      Alcotest.(check (float 1e-9)) "same completion" f.Flooding.completion_time
        s.Multi.completion;
      check_bool "covers" true s.Multi.covers_all_alive
  | _ -> Alcotest.fail "one stat expected"

let test_concurrent_publications () =
  let g = Generators.cycle 12 in
  let pubs = [ pub 0 10; pub 6 20; pub 3 30 ] in
  let m = Multi.run_env ~env:Flood.Env.default ~csr:(Csr.of_graph g) ~publications:pubs () in
  check_bool "all covered" true m.Multi.all_covered;
  check_int "three stats" 3 (List.length m.Multi.per_message);
  (* each payload floods independently: 3x single cost *)
  let single = (Flood.Sync.flood_csr (Csr.of_graph g) ~source:0).Flood.Sync.messages in
  check_int "3x messages" (3 * single) m.Multi.total_messages

let test_staggered_injection () =
  let g = Generators.cycle 8 in
  let m = Multi.run_env ~env:Flood.Env.default ~csr:(Csr.of_graph g) ~publications:[ pub ~t:0.0 0 1; pub ~t:10.0 4 2 ] () in
  (match m.Multi.per_message with
  | [ a; b ] ->
      check_int "ids ordered" 1 a.Multi.payload_id;
      check_int "ids ordered" 2 b.Multi.payload_id;
      (* completion is injection-relative: both take the cycle's 4 rounds *)
      Alcotest.(check (float 1e-9)) "first" 4.0 a.Multi.completion;
      Alcotest.(check (float 1e-9)) "second relative" 4.0 b.Multi.completion
  | _ -> Alcotest.fail "two stats");
  check_bool "covered" true m.Multi.all_covered

let test_crashes_affect_all_payloads () =
  let g = Generators.path_graph 5 in
  let m = Multi.run_env ~env:(Flood.Env.make ~crashed:[ 2 ] ()) ~csr:(Csr.of_graph g) ~publications:[ pub 0 1; pub 4 2 ] () in
  check_bool "neither covers" false m.Multi.all_covered;
  List.iter
    (fun s -> check_int "only own side" 2 s.Multi.delivered_count)
    m.Multi.per_message

let test_duplicate_ids_rejected () =
  let g = Generators.cycle 4 in
  Alcotest.check_raises "dup ids" (Invalid_argument "Multi.run: duplicate payload ids")
    (fun () -> ignore (Multi.run_env ~env:Flood.Env.default ~csr:(Csr.of_graph g) ~publications:[ pub 0 7; pub 1 7 ] ()))

let test_crashed_origin_rejected () =
  let g = Generators.cycle 4 in
  Alcotest.check_raises "crashed origin" (Invalid_argument "Multi.run: origin is crashed")
    (fun () -> ignore (Multi.run_env ~env:(Flood.Env.make ~crashed:[ 1 ] ()) ~csr:(Csr.of_graph g) ~publications:[ pub 1 7 ] ()))

let test_many_publications_on_lhg () =
  let b = Lhg_core.Build.kdiamond_exn ~n:26 ~k:4 in
  let g = b.Lhg_core.Build.graph in
  let pubs = List.init 10 (fun i -> pub ~t:(float_of_int i) (i * 2) i) in
  let m = Multi.run_env ~env:(Flood.Env.make ~crashed:[ 25 ] ()) ~csr:(Csr.of_graph g) ~publications:pubs () in
  check_bool "all covered despite crash" true m.Multi.all_covered

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
