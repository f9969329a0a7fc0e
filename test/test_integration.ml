(* End-to-end scenarios across library boundaries: build → serialise →
   re-verify → flood → repair → route — the workflows a downstream user
   actually runs. *)
open Helpers
module Graph = Graph_core.Graph
module Serial = Graph_core.Serial
module Build = Lhg_core.Build
module Verify = Lhg_core.Verify
module Csr = Graph_core.Csr

let test_build_serialize_verify_roundtrip () =
  let b = Build.kdiamond_exn ~n:38 ~k:4 in
  let text = Serial.to_string b.Build.graph in
  match Serial.of_string text with
  | Error e -> Alcotest.fail e
  | Ok g ->
      check_bool "roundtrip equal" true (Graph.equal b.Build.graph g);
      check_bool "re-verified from text" true (Verify.is_lhg g ~k:4)

let test_grown_overlay_full_stack () =
  (* grow incrementally, then run every protocol on the result *)
  let overlay = Overlay.Incremental.start ~k:3 () in
  let _ = Overlay.Incremental.joins overlay ~count:44 in
  let g = Overlay.Incremental.graph overlay in
  check_int "n" 50 (Graph.n g);
  (* flooding with k-1 crashes *)
  let f = Flood.Flooding.run_csr_env ~env:(Flood.Env.make ~crashed:[ 9; 21 ] ()) ~csr:(Csr.of_graph g) ~source:0 () in
  check_bool "flood covers" true f.Flood.Flooding.covers_all_alive;
  (* PIF completes and detects *)
  let p = Flood.Pif.run_env ~env:Flood.Env.default ~csr:(Csr.of_graph g) ~source:0 () in
  check_bool "pif completes" true p.Flood.Pif.completed;
  (* reliable broadcast under heavy loss *)
  let r =
    Flood.Reliable.run_env ~env:(Flood.Env.make ~loss_rate:0.3 ~seed:4 ()) ~csr:(Csr.of_graph g) ~publications:[ { Flood.Reliable.origin = 0; inject_time = 0.0; payload_id = 1 } ] ~anti_entropy_period:2.0 ~duration:3000.0 ()
  in
  check_bool "reliable completes" true r.Flood.Reliable.complete

let test_membership_and_flooding_agree () =
  (* canonical rebuild overlay: after arbitrary resizes the graph still
     floods everyone under k-1 link failures *)
  match Overlay.Membership.create ~family:Overlay.Membership.Ktree ~k:4 ~n:20 with
  | Error e -> Alcotest.fail (Overlay.Error.to_string e)
  | Ok o ->
      List.iter
        (fun target ->
          (match Overlay.Membership.resize o ~target with
          | Ok _ -> ()
          | Error e -> Alcotest.fail (Overlay.Error.to_string e));
          let g = Overlay.Membership.graph o in
          let rng = rng ~salt:target () in
          let failed_links = Flood.Runner.random_link_failures rng (Csr.of_graph g) ~count:3 in
          let f = Flood.Flooding.run_csr_env ~env:(Flood.Env.make ~failed_links ()) ~csr:(Csr.of_graph g) ~source:0 () in
          check_bool (Printf.sprintf "covers at n=%d" target) true
            f.Flood.Flooding.covers_all_alive)
        [ 33; 97; 64; 21 ]

let test_cut_witness_is_the_adversary_plan () =
  (* the min vertex cut of an LHG, crashed, actually partitions it -
     and flooding then reports incomplete coverage *)
  let b = Build.ktree_exn ~n:26 ~k:3 in
  let g = b.Build.graph in
  let cut = Graph_core.Connectivity.min_vertex_cut (Csr.of_graph g) in
  check_int "cut size = k" 3 (List.length cut);
  if List.mem 0 cut then ()
  else begin
    let f = Flood.Flooding.run_csr_env ~env:(Flood.Env.make ~crashed:cut ()) ~csr:(Csr.of_graph g) ~source:0 () in
    check_bool "partition realised" false f.Flood.Flooding.covers_all_alive
  end

let test_edge_connectivity_of_builds () =
  (* every regular build is exactly k-edge-connected *)
  List.iter
    (fun (n, k) ->
      let b = Build.kdiamond_exn ~n ~k in
      check_int (Printf.sprintf "lambda(%d,%d)" n k) k
        (Graph_core.Connectivity.edge_connectivity b.Build.graph))
    [ (14, 3); (20, 4); (22, 5) ]

let test_traced_flood_accounts_for_every_message () =
  let b = Build.kdiamond_exn ~n:20 ~k:3 in
  let g = b.Build.graph in
  let sim = Netsim.Sim.create () in
  let trace = Netsim.Trace.create () in
  let net = Netsim.Network.create ~sim ~csr:(Graph_core.Csr.of_graph g) ~trace () in
  let informed = Array.make (Graph.n g) false in
  Netsim.Network.set_receiver net (fun ~dst ~src msg ->
      if not informed.(dst) then begin
        informed.(dst) <- true;
        Graph.iter_neighbors g dst (fun w -> if w <> src then Netsim.Network.send net ~src:dst ~dst:w msg)
      end);
  informed.(0) <- true;
  Graph.iter_neighbors g 0 (fun w -> Netsim.Network.send net ~src:0 ~dst:w 0);
  Netsim.Sim.run sim;
  let evs = Netsim.Trace.events trace in
  let count k = List.length (List.filter (fun e -> e.Netsim.Trace.kind = k) evs) in
  check_int "sent = delivered (no failures)" (count Netsim.Trace.Sent)
    (count Netsim.Trace.Delivered);
  check_int "matches closed form" (Flood.Sync.message_bound (Csr.of_graph g)) (count Netsim.Trace.Sent);
  check_bool "everyone informed" true (Array.for_all Fun.id informed)

let suite =
  [
    Alcotest.test_case "build-serialize-verify" `Quick test_build_serialize_verify_roundtrip;
    Alcotest.test_case "grown overlay full stack" `Quick test_grown_overlay_full_stack;
    Alcotest.test_case "membership + flooding" `Quick test_membership_and_flooding_agree;
    Alcotest.test_case "cut witness partitions" `Quick test_cut_witness_is_the_adversary_plan;
    Alcotest.test_case "lambda = k on kdiamond builds" `Quick test_edge_connectivity_of_builds;
    Alcotest.test_case "traced flood accounting" `Quick test_traced_flood_accounts_for_every_message;
  ]
