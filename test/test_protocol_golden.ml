(* Golden protocol digests.

   Every result field of Flood.Flooding, Gossip, Pif and Reliable,
   digested over a grid of topologies × seeds × network
   settings, plus the full wire trace of one traced run per protocol.
   The digests were recorded from the network's earlier two-plane
   design (a polymorphic payload store beside the int plane) and must
   match exactly: re-encoding a protocol's messages as ints may change
   nothing a run does or reports. The three driver columns pin every
   Traffic.Driver.result field under each dissemination strategy the
   same way; they were recorded before the driver took over the
   multi-origin flood, the tree relay's single runs and the gossip
   push. *)

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

let show_reliable (r : Flood.Reliable.result) =
  Printf.sprintf "%s|%b|%s|%d|%d|%s" (fl r.delivered_fraction) r.complete
    (opt fl r.completion_time) r.flood_messages r.repair_messages
    (opt string_of_int r.repair_messages_at_completion)

(* payload ids deliberately sparse and out of origin order *)
let publications n =
  [
    { Flood.Reliable.origin = 0; inject_time = 0.0; payload_id = 10 };
    { Flood.Reliable.origin = n / 2; inject_time = 0.5; payload_id = 3 };
    { Flood.Reliable.origin = n - 1; inject_time = 2.0; payload_id = 77 };
  ]

(* the driver columns: sources 0, n/2 and n−1, two chunks each at
   rate 0.5, under each dissemination strategy *)
let show_driver (r : Traffic.Driver.result) =
  let w : Traffic.Workload.t = r.workload in
  let ilist l = ints (Array.of_list l) in
  String.concat "|"
    [
      Traffic.Workload.arrival_name w.arrival;
      Traffic.Workload.dissemination_name w.dissemination;
      ilist w.sources;
      string_of_int w.source_count;
      string_of_int w.chunks_per_source;
      fl w.rate;
      ilist r.sources;
      ints
        [|
          r.chunks_injected; r.chunks_skipped; r.deliveries; r.wire_messages; r.dropped_queue;
          r.dropped_link; r.dropped_crash; r.dropped_random;
        |];
      floats [| r.duration; r.throughput; r.delivery_fraction |];
      string_of_bool r.all_covered;
      floats [| r.p50_delay; r.p95_delay; r.p99_delay; r.max_delay |];
      string_of_int r.max_queue_backlog;
      String.concat ","
        (List.map (fun (s, d, p) -> Printf.sprintf "%d>%d:%d" s d p) r.hot_links);
      ints [| r.tree_fallbacks; r.tree_fallback_bursts |];
      fl r.recovery_time;
      ints
        [| r.epochs_applied; r.restripe_patched; r.restripe_repacked; r.control_messages |];
    ]

let run_driver dissemination ~env ~g ~source:_ =
  let n = Graph_core.Graph.n g in
  let workload =
    Traffic.Workload.default
    |> Traffic.Workload.with_sources [ 0; n / 2; n - 1 ]
    |> Traffic.Workload.with_chunks_per_source 2 |> Traffic.Workload.with_rate 0.5
    |> Traffic.Workload.with_dissemination dissemination
  in
  show_driver (Traffic.Driver.run_csr_env ~env ~csr:(Csr.of_graph g) ~workload ())

let run_flooding ~env ~g ~source = show_flooding (Flood.Flooding.run_csr_env ~env ~csr:(Csr.of_graph g) ~source ())

let run_gossip ~env ~g ~source =
  let ttl = Flood.Gossip.default_ttl ~n:(Graph_core.Graph.n g) in
  show_gossip (Flood.Gossip.run_env ~env ~csr:(Csr.of_graph g) ~source ~fanout:2 ~ttl ())

let run_pif ~env ~g ~source = show_pif (Flood.Pif.run_env ~env ~csr:(Csr.of_graph g) ~source ())

let run_reliable ~env ~g ~source:_ =
  let publications = publications (Graph_core.Graph.n g) in
  show_reliable
    (Flood.Reliable.run_env ~env ~csr:(Csr.of_graph g) ~publications ~anti_entropy_period:2.0
       ~duration:40.0 ())

let protocols =
  [
    ("flooding", run_flooding);
    ("gossip", run_gossip);
    ("reliable", run_reliable);
    ("pif", run_pif);
    ("driver flood", run_driver Traffic.Workload.Flood);
    ("driver trees", run_driver Traffic.Workload.Trees);
    ("driver gossip", run_driver Traffic.Workload.Gossip);
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
        "79ab6c6544828c387638dd9b2dc06acc";
        "52c1da9f1a7453a82e2fe4e592f48456"; "52efef59a424536c7facacb316be12b3";
        "e9122059ebdc02b4fb98ea2d0ca5898b"; "189e09bb206c8c04470034eacc29a4d7";
      ] );
    ( "kdiamond n=66 k=4 loss",
      [
        "192017c5e4b567e69d31b8b076fa6b33"; "4c455b901c4c69117d374de58cff8cc9";
        "9c3f6ce31136d45a44c27553deb34bf9";
        "5b6db06c9cbb351cdd8ca05fdfb05ce2"; "8a058b7839c921a19e0928a3f6e1eacf";
        "74544816fd67c50a3c57944c7a3eaa2f";
      ] );
    ( "kdiamond n=66 k=4 uniform latency",
      [
        "d9728e58b0c31c079d680fa254e8cd6b"; "3748c40f2ddb4fc609e34bb6cc0c4f7d";
        "f0aae99d5d9b8544f63c25d4d773ccac";
        "beebe5210696972e31637b74ab4ab835"; "63ef5d338fe42eb0bfa40349465e024e";
        "4ce14ba014866fb069f4f1ebe2b128b3"; "5736f5a8a02fbf788948822d01b00776";
      ] );
    ( "kdiamond n=66 k=4 processing delay",
      [
        "2501dbe9c0bcb4c639bec894234687c6"; "f0d3ead6f04a66ff71940199f16a8611";
        "f8816100153d10de7bec20b60ab7ae84";
        "38a3f40fb45a34670a35547a0203b42f"; "58a0932e6961bd0d378a5d9131969619";
        "44afc7f8acaa8b3323bae7a27101cc60"; "4d5e02ecac552f51eedda52fcceabd09";
      ] );
    ( "kdiamond n=66 k=4 capacity",
      [
        "e929dbbf5f7474e2ae1901bd61ce6552"; "9c5d4c88bf5ad3928a55b653bfe8fd79";
        "43032119d141cb4ec861b9675b9b6b93";
        "a758b6be7e12b2edb2af16c4db3686d9"; "f73e242ebefdfa1e5fd0131d7f60d77f";
        "49795e2cecfdb52619e9ec5218093336"; "90d8a434d176c9ceb96a0ba3e3cfdcc3";
      ] );
    ( "kdiamond n=66 k=4 2 bands",
      [
        "e929dbbf5f7474e2ae1901bd61ce6552"; "9c5d4c88bf5ad3928a55b653bfe8fd79";
        "58604a6b971c714361fa9068e385b3dc";
        "a758b6be7e12b2edb2af16c4db3686d9"; "f012be65a1f4d339c09a832c7ec6e08b";
        "49795e2cecfdb52619e9ec5218093336"; "abb6bfdbbed949af01cdf5c7ed7c4faa";
      ] );
    ( "kdiamond n=66 k=4 chaos",
      [
        "3df775bc47a1c8979d32eafa8d8178d6"; "a4b37b0aef13747bf3360a0343a41afa";
        "0d225f97741b252c7e0f84e56f1c509f";
        "521cbf76d739fb16845cee548c99b383"; "74d6dc71bbdd01d96abc189bdc2ed195";
        "4ae4d145e6aecc684d44debd8193fb77"; "1df20be4594dce2433f0ef5c0b7cea57";
      ] );
    ( "harary n=40 k=4 base",
      [
        "214b58824d81ad3ce9667decdb0fc81a"; "09b982e5868ed2ef9158a1112d46fca8";
        "947e40c1e00a1d471035024fd2289953";
        "a97e4f9c00c0e7f00b2835c936653f5d"; "809eb2a8ab556e00e6ecc351491764c2";
        "2cd99f9f364d5e3af30801c088a7b25f"; "b5b9c3079d7acfdd67f0d4a5d7bb9dc3";
      ] );
    ( "harary n=40 k=4 loss",
      [
        "4010fe39d60583f862d5f30a0166704e"; "0d3ba23fcc1bd0159f75cb5524402123";
        "48a932641ee25db0679b4da4e726379f";
        "888d92088b59e91eb8e41ade2f21f495"; "00faa57cc8751cb2f30c2eee1c507c9a";
        "71b942d2cdea5aedf2bb08d4aef142e1";
      ] );
    ( "harary n=40 k=4 uniform latency",
      [
        "726ebc2f1f0f74ad88a0f6fc1924caa2"; "cd42c3c7e50b782aa89a69a6bd0e0aaa";
        "badaf1a27e8d131915b571bdc20bfc7b";
        "b1375842233a6796bcd1797bd6ce1bb8"; "445668c0c612784950b63ef883dc2ecb";
        "ab891a0aa9aa42acdcde0a6c71c6720e"; "5d33f59797963c9e92d1e87e4101d2b4";
      ] );
    ( "harary n=40 k=4 processing delay",
      [
        "e770994a196da7e5fce5621c6e05d15a"; "9ab2334772adcf763ea7a47e73f3bb09";
        "76229169cc357da8eafbb92c8e243396";
        "c30d510b0d92c17ddf13da5a8b939278"; "2446680efc49d5e04577e0ed00b78366";
        "b058691e888e7a99ab4d1fe4b4eaee17"; "b624642e37219c10a220c1b5165f4947";
      ] );
    ( "harary n=40 k=4 capacity",
      [
        "bf96a6f03e16bb83899fbc1f022622db"; "3908c8ef9ef5aa710d4d32c525c653a4";
        "d4b48a653c1628294cc7972f6a01b8be";
        "5b2543bb9c9cb1e34ec3f37030c05f1b"; "4614363d81df1d42edc9d3ab90c37018";
        "22c5a159b211777d029a5d19553325aa"; "d0df6bb8992effa44d22f3f3f9f6f63f";
      ] );
    ( "harary n=40 k=4 2 bands",
      [
        "bf96a6f03e16bb83899fbc1f022622db"; "3908c8ef9ef5aa710d4d32c525c653a4";
        "8865801d102d1ae9949e7d8e48564c90";
        "5b2543bb9c9cb1e34ec3f37030c05f1b"; "b757c361099b676c05aaa4b0f3e09cda";
        "22c5a159b211777d029a5d19553325aa"; "e31240ae042822c2e31cf9423549fdb4";
      ] );
    ( "harary n=40 k=4 chaos",
      [
        "9bc9a99b28148b4a624a57403283a4ee"; "c786d404961582b70876ddfd5da7c4f9";
        "f53e491903b4a116478cb4be73c452ef";
        "a87ec6d56e9b57f860208cf5c0c3903c"; "1c65de024175791143e08ddcbacf39c9";
        "76139d71a3721a86db6652ac65cfa04d"; "876262ccf8c57223c48cc9ee52dc7552";
      ] );
    ( "random_regular n=60 k=4 base",
      [
        "2592d94a534457aba29b9c13fa3ab9c2"; "d55973006259bd1e3ac366fd2ba61c41";
        "ba5ca12a6b673a5f91e888eadbafd383";
        "05ede7726a3e398ba4c54a7736ef410f"; "c7542b20854fa82e1fb8b72142c4035b";
        "0f36265768d16640c248a04deb0c85f7"; "68c129a2ffab45508ae997561d71aaf1";
      ] );
    ( "random_regular n=60 k=4 loss",
      [
        "98c59772cf5f707b8f044b395748d19b"; "eab6def7cd3e09f12389d9c7c8746348";
        "31c3a22bda11c5deb8b7267ae4214958";
        "9ce590fbcbd92a89e00f24ed652c5174"; "3603bd6904645bcb67f2b3f806cd330c";
        "8d5a606e64e5743d101e731468ece079";
      ] );
    ( "random_regular n=60 k=4 uniform latency",
      [
        "97128959c99b6a30ddd2f53f4b932e0a"; "959a9b932172cf2032e6b4b8a7da26b5";
        "52a57a009f076a09901227ab56ca1bcd";
        "7c1f61cc58a7a4181b67712417d860ec"; "bbe088d122b209872245fafbcbd690b6";
        "4f86d205d39a4abf0dfae75c2e1b748c"; "d742d6b226fd1de2f9b409c542214cd5";
      ] );
    ( "random_regular n=60 k=4 processing delay",
      [
        "b65284fa124a9d5161b67ace64e8af7e"; "683bf88236dd21fc8a0d182bdee0c0ee";
        "3266565f21d9236abc735387e9ce5597";
        "f7526ccffa6f7813a33bb6e11940fa2b"; "210290ef5c06ce69323bd47bfc814450";
        "cc06d0222bc7566bf9e76a600477fa93"; "f421a477bcf5281dfd74995f4e8b40ad";
      ] );
    ( "random_regular n=60 k=4 capacity",
      [
        "0a0d2376c0e6ce929476d581b4e0a9b3"; "0fe7c18c0d437f5a356d8c65c21330d6";
        "f8cb2531867ea1a768bd06c86269986c";
        "cb645b0ca412816bca1627b2374bcf9a"; "32123e95737b78c593eead2942c9db56";
        "81f449c01c7ffcff4d4d51da8f094f32"; "9e3af694c23b6e9537ad73669ec60bdf";
      ] );
    ( "random_regular n=60 k=4 2 bands",
      [
        "0a0d2376c0e6ce929476d581b4e0a9b3"; "0fe7c18c0d437f5a356d8c65c21330d6";
        "1217c4e90be16b8054ca2a39bf8088eb";
        "cb645b0ca412816bca1627b2374bcf9a"; "23c36234e66751419a72c903a252bc84";
        "81f449c01c7ffcff4d4d51da8f094f32"; "546d8201111bb0f7b9da858d5a83b1ca";
      ] );
    ( "random_regular n=60 k=4 chaos",
      [
        "59c40e345af6ec3f299faa2cb15428b2"; "709d7dc8c5015f7c26dcea76ab1e06fb";
        "a457dfc8dbe1ea286cac0433cd786a69";
        "67d809e3e0c01c575640778f293b6f11"; "ce5eeef35cd8478f39f3bbcc31b7110b";
        "2b2d24b0f00e0603a7ba055ce15516a3"; "9b0e87635c1a300616155754f6cf1c88";
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
    ( "traced driver flood",
      [
        "4c2447ce4e5642f4f1d7ef909b75ee91"; "edba1c05e4500769ec09c171e4022741";
        "2436";
      ] );
    ( "traced driver trees",
      [
        "81e5e684b223f9a9a773b0f3dcb78dbc"; "4de8668db3b53082e0de20543c6aaaea";
        "708";
      ] );
    ( "traced driver gossip",
      [
        "11bc5a30eec9a5e1f75f200df5c097b1"; "420271f70d79ebd92c971be3c5002dca";
        "3168";
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
