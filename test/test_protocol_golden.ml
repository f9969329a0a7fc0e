(* Golden protocol digests.

   Every result field of Flood.Flooding, Gossip, Pif, Multi and
   Reliable, digested over a grid of topologies × seeds × network
   settings, plus the full wire trace of one traced run per protocol.
   The digests were recorded from the network's earlier two-plane
   design (a polymorphic payload store beside the int plane) and must
   match exactly: re-encoding a protocol's messages as ints may change
   nothing a run does or reports. *)

open Helpers
module Csr = Graph_core.Csr
module Network = Netsim.Network
module Trace = Netsim.Trace
module Env = Flood.Env
module Plan = Chaos.Plan

let graph_of ~kind ~n ~k ~seed =
  match Topo.Registry.build_graph ~kind ~n ~k ~seed with
  | Ok g -> g
  | Error e -> Alcotest.failf "%s(n=%d,k=%d): %s" kind n k e

let topologies = [ ("kdiamond", 66, 4); ("harary", 40, 4); ("random_regular", 60, 4) ]

let seeds = [ 1; 2; 3 ]

(* A link goes down, a node crashes, loss spikes, and everything comes
   back: every Plan event kind a protocol run can meet, away from the
   publication origins (0, n/2, n−1). *)
let chaos_plan g =
  let n = Graph_core.Graph.n g in
  let csr = Csr.of_graph g in
  let u = 1 in
  let w = List.hd (Csr.neighbors csr u) in
  let c = n / 3 in
  Plan.make
    [
      { Plan.at = 1.0; event = Plan.Link_down (u, w) };
      { Plan.at = 1.5; event = Plan.Crash c };
      { Plan.at = 2.0; event = Plan.Loss_rate 0.2 };
      { Plan.at = 3.0; event = Plan.Loss_rate 0.0 };
      { Plan.at = 4.0; event = Plan.Recover c };
      { Plan.at = 6.0; event = Plan.Link_up (u, w) };
    ]

(* (name, env transformer, whether Pif runs: it rejects a loss rate) *)
let settings g =
  [
    ("base", Fun.id, true);
    ("loss", Env.with_loss_rate 0.1, false);
    ("uniform latency", Env.with_latency (Network.uniform_latency ~lo:0.5 ~hi:2.0), true);
    ("processing delay", Env.with_processing_delay 0.5, true);
    ( "capacity",
      (fun e ->
        e |> Env.with_link_capacity 1.0 |> Env.with_queue_cap 2
        |> Env.with_queue_policy Network.Drop_tail),
      true );
    ("2 bands", (fun e -> e |> Env.with_bands 2 |> Env.with_link_capacity 1.0), true);
    ("chaos", Env.with_prepare (Chaos.Exec.prepare_hook (chaos_plan g)), true);
  ]

(* -- exact serialisations of every result field ----------------------- *)

let fl = Printf.sprintf "%h"

let bools a = String.init (Array.length a) (fun i -> if a.(i) then '1' else '0')

let floats a = String.concat "," (Array.to_list (Array.map fl a))

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

let opt f = function Some x -> f x | None -> "none"

let show_flooding (r : Flood.Flooding.result) =
  Printf.sprintf "%s|%s|%s|%d|%d|%s|%d|%b" (bools r.delivered) (floats r.delivery_time)
    (ints r.hops) r.messages_sent r.messages_delivered (fl r.completion_time) r.max_hops
    r.covers_all_alive

let show_gossip (r : Flood.Gossip.result) =
  Printf.sprintf "%s|%d|%s|%s" (bools r.delivered) r.messages_sent (fl r.completion_time)
    (fl r.coverage_of_alive)

let show_pif (r : Flood.Pif.result) =
  Printf.sprintf "%s|%b|%s|%s|%d" (bools r.informed) r.completed
    (fl r.completion_detected_at) (fl r.last_delivery_at) r.messages

let show_multi (r : Flood.Multi.result) =
  String.concat ";"
    (List.map
       (fun (m : Flood.Multi.message_stats) ->
         Printf.sprintf "%d|%d|%d|%s|%b" m.payload_id m.origin m.delivered_count
           (fl m.completion) m.covers_all_alive)
       r.per_message)
  ^ Printf.sprintf "|%d|%b" r.total_messages r.all_covered

let show_reliable (r : Flood.Reliable.result) =
  Printf.sprintf "%s|%b|%s|%d|%d|%s" (fl r.delivered_fraction) r.complete
    (opt fl r.completion_time) r.flood_messages r.repair_messages
    (opt string_of_int r.repair_messages_at_completion)

(* payload ids deliberately sparse and out of origin order *)
let publications n =
  [
    { Flood.Multi.origin = 0; inject_time = 0.0; payload_id = 10 };
    { Flood.Multi.origin = n / 2; inject_time = 0.5; payload_id = 3 };
    { Flood.Multi.origin = n - 1; inject_time = 2.0; payload_id = 77 };
  ]

let run_flooding ~env ~g ~source = show_flooding (Flood.Flooding.run_csr_env ~env ~csr:(Csr.of_graph g) ~source ())

let run_gossip ~env ~g ~source =
  let ttl = Flood.Gossip.default_ttl ~n:(Graph_core.Graph.n g) in
  show_gossip (Flood.Gossip.run_env ~env ~csr:(Csr.of_graph g) ~source ~fanout:2 ~ttl ())

let run_pif ~env ~g ~source = show_pif (Flood.Pif.run_env ~env ~csr:(Csr.of_graph g) ~source ())

let run_multi ~env ~g ~source:_ =
  let publications = publications (Graph_core.Graph.n g) in
  show_multi (Flood.Multi.run_env ~env ~csr:(Csr.of_graph g) ~publications ())

let run_reliable ~env ~g ~source:_ =
  let publications = publications (Graph_core.Graph.n g) in
  show_reliable
    (Flood.Reliable.run_env ~env ~csr:(Csr.of_graph g) ~publications ~anti_entropy_period:2.0
       ~duration:40.0 ())

let protocols =
  [
    ("flooding", run_flooding);
    ("gossip", run_gossip);
    ("multi", run_multi);
    ("reliable", run_reliable);
    ("pif", run_pif);
  ]

let digest s = Digest.to_hex (Digest.string s)

(* one case per (topology, setting): a digest per protocol, each over
   the concatenated results of every seed *)
let grid_cases () =
  List.concat_map
    (fun (kind, n, k) ->
      let g = graph_of ~kind ~n ~k ~seed:7 in
      List.map
        (fun (name, tweak, pif_ok) ->
          let digests =
            List.filter_map
              (fun (proto, run) ->
                if proto = "pif" && not pif_ok then None
                else
                  Some
                    (digest
                       (String.concat "\n"
                          (List.map
                             (fun seed ->
                               let env = Env.default |> Env.with_seed seed |> tweak in
                               run ~env ~g ~source:(seed * 7 mod n))
                             seeds))))
              protocols
          in
          (Printf.sprintf "%s n=%d k=%d %s" kind n k name, digests))
        (settings g))
    topologies

(* every knob at once, traced: the result and the full event stream *)
let traced_cases () =
  let g = graph_of ~kind:"kdiamond" ~n:66 ~k:4 ~seed:7 in
  let kinds = Hashtbl.create 8 in
  let cases =
    List.map
      (fun (proto, run) ->
        let trace = Trace.create () in
        let env =
          Env.default |> Env.with_seed 1
          |> Env.with_latency (Network.uniform_latency ~lo:0.5 ~hi:1.5)
          |> Env.with_processing_delay 0.25 |> Env.with_link_capacity 1.0
          |> Env.with_queue_cap 2 |> Env.with_bands 2
          |> Env.with_prepare (Chaos.Exec.prepare_hook (chaos_plan g))
          |> Env.with_trace trace
        in
        let result = run ~env ~g ~source:5 in
        check_int (proto ^ ": trace kept every event") 0 (Trace.dropped_events trace);
        let events = Trace.events trace in
        List.iter (fun e -> Hashtbl.replace kinds e.Trace.kind ()) events;
        let lines =
          List.map
            (fun e ->
              Printf.sprintf "%s %s %d %d %d" (fl e.Trace.time) (Trace.kind_name e.Trace.kind)
                e.Trace.src e.Trace.dst e.Trace.seq)
            events
        in
        ( "traced " ^ proto,
          [ digest result; digest (String.concat "\n" lines); string_of_int (List.length events) ]
        ))
      protocols
  in
  (* the traced runs between them must reach every trace event kind *)
  List.iter
    (fun kind ->
      check_bool ("traced runs reach " ^ Trace.kind_name kind) true (Hashtbl.mem kinds kind))
    Trace.[ Sent; Delivered; Dropped_link; Dropped_crash; Dropped_random; Dropped_queue ];
  cases

let golden =
  [
    ( "kdiamond n=66 k=4 base",
      [
        "44476f862b232b69b54e379f0c1d671b"; "dd5c01289b6590d0bd6457aa4b8fb9df";
        "e52f61c4f5d1705a2984560f21b6e7e0"; "79ab6c6544828c387638dd9b2dc06acc";
        "52c1da9f1a7453a82e2fe4e592f48456";
      ] );
    ( "kdiamond n=66 k=4 loss",
      [
        "192017c5e4b567e69d31b8b076fa6b33"; "4c455b901c4c69117d374de58cff8cc9";
        "7e3401d91c8b076d087ba129e7a04459"; "9c3f6ce31136d45a44c27553deb34bf9";
      ] );
    ( "kdiamond n=66 k=4 uniform latency",
      [
        "d9728e58b0c31c079d680fa254e8cd6b"; "3748c40f2ddb4fc609e34bb6cc0c4f7d";
        "a80a5b4c0bdb28791487c24ee0d43c21"; "f0aae99d5d9b8544f63c25d4d773ccac";
        "beebe5210696972e31637b74ab4ab835";
      ] );
    ( "kdiamond n=66 k=4 processing delay",
      [
        "2501dbe9c0bcb4c639bec894234687c6"; "f0d3ead6f04a66ff71940199f16a8611";
        "b36eb2521ac7beabd1b6fae437df677f"; "f8816100153d10de7bec20b60ab7ae84";
        "38a3f40fb45a34670a35547a0203b42f";
      ] );
    ( "kdiamond n=66 k=4 capacity",
      [
        "e929dbbf5f7474e2ae1901bd61ce6552"; "9c5d4c88bf5ad3928a55b653bfe8fd79";
        "f5ab14ed74ce4f7e722320db1a2248ed"; "43032119d141cb4ec861b9675b9b6b93";
        "a758b6be7e12b2edb2af16c4db3686d9";
      ] );
    ( "kdiamond n=66 k=4 2 bands",
      [
        "e929dbbf5f7474e2ae1901bd61ce6552"; "9c5d4c88bf5ad3928a55b653bfe8fd79";
        "1ead8d107a76b6119074fc087e99c2ee"; "58604a6b971c714361fa9068e385b3dc";
        "a758b6be7e12b2edb2af16c4db3686d9";
      ] );
    ( "kdiamond n=66 k=4 chaos",
      [
        "3df775bc47a1c8979d32eafa8d8178d6"; "a4b37b0aef13747bf3360a0343a41afa";
        "c2011f64da276270077473607517370f"; "0d225f97741b252c7e0f84e56f1c509f";
        "521cbf76d739fb16845cee548c99b383";
      ] );
    ( "harary n=40 k=4 base",
      [
        "214b58824d81ad3ce9667decdb0fc81a"; "09b982e5868ed2ef9158a1112d46fca8";
        "7ecb8231d9a421bf71860de1fa0f5fc2"; "947e40c1e00a1d471035024fd2289953";
        "a97e4f9c00c0e7f00b2835c936653f5d";
      ] );
    ( "harary n=40 k=4 loss",
      [
        "4010fe39d60583f862d5f30a0166704e"; "0d3ba23fcc1bd0159f75cb5524402123";
        "e7097539316944ef3425d4d06289d3a5"; "48a932641ee25db0679b4da4e726379f";
      ] );
    ( "harary n=40 k=4 uniform latency",
      [
        "726ebc2f1f0f74ad88a0f6fc1924caa2"; "cd42c3c7e50b782aa89a69a6bd0e0aaa";
        "e4163073d52994fe86f6dc4cc497e3f5"; "badaf1a27e8d131915b571bdc20bfc7b";
        "b1375842233a6796bcd1797bd6ce1bb8";
      ] );
    ( "harary n=40 k=4 processing delay",
      [
        "e770994a196da7e5fce5621c6e05d15a"; "9ab2334772adcf763ea7a47e73f3bb09";
        "76705d60dae6592e24df407ea1492e9a"; "76229169cc357da8eafbb92c8e243396";
        "c30d510b0d92c17ddf13da5a8b939278";
      ] );
    ( "harary n=40 k=4 capacity",
      [
        "bf96a6f03e16bb83899fbc1f022622db"; "3908c8ef9ef5aa710d4d32c525c653a4";
        "bd5f35d4151be8f04fc1c8f22d37e420"; "d4b48a653c1628294cc7972f6a01b8be";
        "5b2543bb9c9cb1e34ec3f37030c05f1b";
      ] );
    ( "harary n=40 k=4 2 bands",
      [
        "bf96a6f03e16bb83899fbc1f022622db"; "3908c8ef9ef5aa710d4d32c525c653a4";
        "bd5f35d4151be8f04fc1c8f22d37e420"; "8865801d102d1ae9949e7d8e48564c90";
        "5b2543bb9c9cb1e34ec3f37030c05f1b";
      ] );
    ( "harary n=40 k=4 chaos",
      [
        "9bc9a99b28148b4a624a57403283a4ee"; "c786d404961582b70876ddfd5da7c4f9";
        "7ecb8231d9a421bf71860de1fa0f5fc2"; "f53e491903b4a116478cb4be73c452ef";
        "a87ec6d56e9b57f860208cf5c0c3903c";
      ] );
    ( "random_regular n=60 k=4 base",
      [
        "2592d94a534457aba29b9c13fa3ab9c2"; "d55973006259bd1e3ac366fd2ba61c41";
        "af50990d151565ef35d2335a22cf5052"; "ba5ca12a6b673a5f91e888eadbafd383";
        "05ede7726a3e398ba4c54a7736ef410f";
      ] );
    ( "random_regular n=60 k=4 loss",
      [
        "98c59772cf5f707b8f044b395748d19b"; "eab6def7cd3e09f12389d9c7c8746348";
        "0bfecc66b7a8f8206fbfaa7518123e78"; "31c3a22bda11c5deb8b7267ae4214958";
      ] );
    ( "random_regular n=60 k=4 uniform latency",
      [
        "97128959c99b6a30ddd2f53f4b932e0a"; "959a9b932172cf2032e6b4b8a7da26b5";
        "8127a5bcd558b6845c5c80917e16e703"; "52a57a009f076a09901227ab56ca1bcd";
        "7c1f61cc58a7a4181b67712417d860ec";
      ] );
    ( "random_regular n=60 k=4 processing delay",
      [
        "b65284fa124a9d5161b67ace64e8af7e"; "683bf88236dd21fc8a0d182bdee0c0ee";
        "6d8f019e2d12a841424a62d81f01e595"; "3266565f21d9236abc735387e9ce5597";
        "f7526ccffa6f7813a33bb6e11940fa2b";
      ] );
    ( "random_regular n=60 k=4 capacity",
      [
        "0a0d2376c0e6ce929476d581b4e0a9b3"; "0fe7c18c0d437f5a356d8c65c21330d6";
        "219f695b78cc2b8c9c95171aff0f8d0f"; "f8cb2531867ea1a768bd06c86269986c";
        "cb645b0ca412816bca1627b2374bcf9a";
      ] );
    ( "random_regular n=60 k=4 2 bands",
      [
        "0a0d2376c0e6ce929476d581b4e0a9b3"; "0fe7c18c0d437f5a356d8c65c21330d6";
        "219f695b78cc2b8c9c95171aff0f8d0f"; "1217c4e90be16b8054ca2a39bf8088eb";
        "cb645b0ca412816bca1627b2374bcf9a";
      ] );
    ( "random_regular n=60 k=4 chaos",
      [
        "59c40e345af6ec3f299faa2cb15428b2"; "709d7dc8c5015f7c26dcea76ab1e06fb";
        "29d9bcd3f48ae62cf28d2c45b100de78"; "a457dfc8dbe1ea286cac0433cd786a69";
        "67d809e3e0c01c575640778f293b6f11";
      ] );
    ( "traced flooding",
      [
        "9aff97ab187acdecc661d6f998f7be0c"; "481458bf711b70acef564f7333f80af8";
        "406";
      ] );
    ( "traced gossip",
      [
        "0f8d0bb0cd5e7f8b9bf869d7f47b46f0"; "09411e80f818defa1905d84006d35f44";
        "104";
      ] );
    ( "traced multi",
      [
        "f89a98383f96d70e69c54073eab6d9e1"; "309bbd0e5edccf636aa1bf1977558eba";
        "1218";
      ] );
    ( "traced reliable",
      [
        "5150b9ad2fe53c640322e4c4bc242ef4"; "64f255e3a855eaaa1cf91232923bca81";
        "4233";
      ] );
    ( "traced pif",
      [
        "8057c3715de9b0dbc4a6357048a7ec18"; "6cd90dca3e1dbd2fb7b5e2f1d6c82380";
        "808";
      ] );
  ]

let check_golden cases () =
  let cases = cases () in
  let want = List.filter (fun (label, _) -> List.mem_assoc label cases) golden in
  Alcotest.(check (list string)) "case labels" (List.map fst want) (List.map fst cases);
  List.iter2 (fun (label, want) (_, got) -> Alcotest.(check (list string)) label want got) want cases

let suite =
  [
    Alcotest.test_case "protocol results over the settings grid" `Quick (check_golden grid_cases);
    Alcotest.test_case "traced runs: results and wire traces" `Quick (check_golden traced_cases);
  ]
