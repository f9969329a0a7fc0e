(* Flood.Trees: the spanning-tree relay with flood fallback, run
   through Traffic.Driver's Trees dissemination, where chunk j of a
   source rides tree (j mod count) of its packing.

   The load-bearing properties, per ISSUE 8: a clean run costs exactly
   n−1 messages per tree and covers everything; with up to ⌊k/2⌋−1
   failed links the broadcast still reaches every alive node
   (escalating to flood bursts where a tree edge died); and the payload
   encoding round-trips. *)

open Helpers
module Csr = Graph_core.Csr
module Tree_pack = Graph_core.Tree_pack
module Trees = Flood.Trees
module Env = Flood.Env
module Workload = Traffic.Workload
module Driver = Traffic.Driver
module R = Topo.Registry

let csr_of ~kind ~n ~k ~seed =
  match R.build_csr_graph ~kind ~n ~k ~seed () with
  | Ok c -> c
  | Error e -> Alcotest.failf "%s(n=%d,k=%d): %s" kind n k e

(* one source's stream of [chunks] chunks, striped over its trees *)
let run ~env ~csr ~source ~chunks =
  let workload =
    Workload.default |> Workload.with_dissemination Workload.Trees
    |> Workload.with_sources [ source ] |> Workload.with_chunks_per_source chunks
  in
  Driver.run_csr_env ~env ~csr ~workload ()

let test_encoding () =
  List.iter
    (fun chunk ->
      List.iter
        (fun flood ->
          let p = Trees.encode ~chunk ~flood in
          check_int "chunk round-trips" chunk (Trees.chunk_of p);
          check_bool "flag round-trips" flood (Trees.is_flood p))
        [ false; true ])
    [ 0; 1; 7; 1 lsl 20 ]

let test_clean_run_costs_n_minus_1 () =
  List.iter
    (fun (kind, n, k) ->
      let csr = csr_of ~kind ~n ~k ~seed:7 in
      let pack = Tree_pack.pack csr ~source:0 in
      let count = Tree_pack.count pack in
      let r = run ~env:(Env.make ~seed:3 ()) ~csr ~source:0 ~chunks:count in
      (* every delivery costs a message, so count × (n−1) sends that
         cover everyone are exactly n−1 per tree *)
      check_int (kind ^ ": exactly n-1 messages per tree") (count * (n - 1)) r.Driver.wire_messages;
      check_int (kind ^ ": no fallbacks") 0 r.Driver.tree_fallback_bursts;
      check_bool (kind ^ ": full coverage") true (r.Driver.delivery_fraction = 1.0);
      check_bool (kind ^ ": everyone delivered") true r.Driver.all_covered;
      for tree = 0 to count - 1 do
        check_bool
          (Printf.sprintf "%s tree %d: completion = tree depth" kind tree)
          true
          (r.Driver.completions.(tree) = float_of_int (Tree_pack.max_depth pack ~tree))
      done)
    [ ("kdiamond", 66, 4); ("hypercube", 32, 5); ("harary", 40, 4) ]

(* Any single failed link (⌊k/2⌋−1 = 1 for k in 4..5) leaves the
   broadcast complete: either the link was off-tree (pure tree run) or
   the upstream node escalates to a flood burst that routes around it.
   Failing a real tree edge forces the fallback path. *)
let prop_survives_link_failures =
  qcheck ~count:30 "≤ ⌊k/2⌋−1 dead links: still delivers to all alive"
    QCheck2.Gen.(triple (int_range 20 70) (int_range 4 5) (int_bound 10_000))
    (fun (n, k, seed) ->
      match R.find "kdiamond" with
      | Some e when not (e.R.admissible ~n ~k) -> true
      | _ ->
      let csr = csr_of ~kind:"kdiamond" ~n ~k ~seed in
      let source = seed mod Csr.n csr in
      let pack = Tree_pack.pack csr ~source in
      let tree = seed mod Tree_pack.count pack in
      (* fail one edge of the tree the last chunk rides *)
      let edges = Tree_pack.edges pack ~tree in
      let u, v = List.nth edges (seed mod List.length edges) in
      let env = Env.make ~seed () |> Env.with_failed_links [ (u, v) ] in
      let r = run ~env ~csr ~source ~chunks:(tree + 1) in
      r.Driver.all_covered
      && r.Driver.tree_fallbacks > 0
      && r.Driver.delivery_fraction = 1.0
      && r.Driver.wire_messages > (tree + 1) * (Csr.n csr - 1))

(* An off-tree failure must not disturb the tree at all. *)
let prop_off_tree_failure_is_free =
  qcheck ~count:30 "off-tree dead link: clean n-1 run"
    QCheck2.Gen.(pair (int_range 20 70) (int_bound 10_000))
    (fun (n, seed) ->
      match R.find "kdiamond" with
      | Some e when not (e.R.admissible ~n ~k:4) -> true
      | _ ->
      let csr = csr_of ~kind:"kdiamond" ~n ~k:4 ~seed in
      let n = Csr.n csr in
      let source = seed mod n in
      let pack = Tree_pack.pack csr ~source in
      if Tree_pack.count pack < 2 then true
      else begin
        (* an edge of tree 1 is never an edge of tree 0, which the one
           chunk rides *)
        let u, v = List.hd (Tree_pack.edges pack ~tree:1) in
        let env = Env.make ~seed () |> Env.with_failed_links [ (u, v) ] in
        let r = run ~env ~csr ~source ~chunks:1 in
        r.Driver.wire_messages = n - 1 && r.Driver.tree_fallback_bursts = 0 && r.Driver.all_covered
      end)

let test_crashed_nodes_excluded () =
  let csr = csr_of ~kind:"kdiamond" ~n:66 ~k:4 ~seed:7 in
  (* crash a leaf-ish node far from the source; coverage counts alive only *)
  let victim = 65 in
  let env = Env.make ~seed:3 () |> Env.with_crashed [ victim ] in
  let r = run ~env ~csr ~source:0 ~chunks:1 in
  check_int "victim not delivered" (66 - 2) r.Driver.deliveries;
  check_bool "alive coverage full" true (r.Driver.delivery_fraction = 1.0 && r.Driver.all_covered)

let test_invalid_inputs () =
  let csr = csr_of ~kind:"kdiamond" ~n:22 ~k:3 ~seed:1 in
  let env () = Env.make ~seed:1 () in
  Alcotest.check_raises "source out of range"
    (Invalid_argument "Traffic.run: source out of range [0, 22)") (fun () ->
      ignore (run ~env:(env ()) ~csr ~source:22 ~chunks:1));
  Alcotest.check_raises "crashed source"
    (Invalid_argument "Traffic.run: source 0 is crashed at t = 0") (fun () ->
      ignore (run ~env:(env () |> Env.with_crashed [ 0 ]) ~csr ~source:0 ~chunks:1))

let suite =
  [
    Alcotest.test_case "payload encoding round-trips" `Quick test_encoding;
    Alcotest.test_case "clean run: n-1 messages, full coverage" `Quick
      test_clean_run_costs_n_minus_1;
    prop_survives_link_failures;
    prop_off_tree_failure_is_free;
    Alcotest.test_case "crashed nodes excluded from coverage" `Quick
      test_crashed_nodes_excluded;
    Alcotest.test_case "invalid inputs raise" `Quick test_invalid_inputs;
  ]
