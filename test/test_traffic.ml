(* Sustained traffic: bounded link FIFOs and the workload driver.

   The load-bearing properties, per ISSUE 7: FIFO order holds per
   directed link (no reorder under a deterministic latency model),
   messages are conserved (sent = delivered + every drop reason),
   Calendar and Heap engines produce byte-identical lhg-traffic/1
   documents, and Block policy never sheds. *)

open Helpers
module Graph = Graph_core.Graph
module Sim = Netsim.Sim
module Network = Netsim.Network
module Trace = Netsim.Trace
module Env = Flood.Env
module Workload = Traffic.Workload
module Driver = Traffic.Driver
module Csr = Graph_core.Csr

let graph () = (Lhg_core.Build.kdiamond_exn ~n:12 ~k:3).Lhg_core.Build.graph

(* a workload that actually pressures the queues: 3 sources drumming
   fast through slow links *)
let pressure_workload =
  Workload.default |> Workload.with_source_count 3 |> Workload.with_chunks_per_source 4
  |> Workload.with_rate 0.5

let env_with ~seed ~capacity ?queue_cap ?policy ?trace () =
  Env.default |> Env.with_seed seed
  |> Env.with_link_capacity capacity
  |> (match queue_cap with Some q -> Env.with_queue_cap q | None -> Fun.id)
  |> (match policy with Some p -> Env.with_queue_policy p | None -> Fun.id)
  |> match trace with Some t -> Env.with_trace t | None -> Fun.id

(* FIFO per directed link: under the constant default latency, the
   deliveries on any (src, dst) must appear in send (seq) order with
   non-decreasing times — a queued message never overtakes its
   predecessor on the same link. *)
let prop_fifo_no_reorder =
  qcheck ~count:25 "per-link FIFO: no reorder under queueing"
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 1 3))
    (fun (seed, queue_cap) ->
      let trace = Trace.create () in
      let env =
        env_with ~seed ~capacity:0.25 ~queue_cap ~policy:Network.Drop_tail ~trace ()
      in
      let _r = Driver.run_csr_env ~env ~csr:(Csr.of_graph (graph ())) ~workload:pressure_workload () in
      let last : (int * int, int * float) Hashtbl.t = Hashtbl.create 64 in
      List.for_all
        (fun (e : Trace.event) ->
          match e.Trace.kind with
          | Trace.Delivered ->
              let key = (e.Trace.src, e.Trace.dst) in
              let ok =
                match Hashtbl.find_opt last key with
                | Some (seq, time) -> e.Trace.seq > seq && e.Trace.time >= time
                | None -> true
              in
              Hashtbl.replace last key (e.Trace.seq, e.Trace.time);
              ok
          | _ -> true)
        (Trace.events trace))

(* Conservation: every send reaches exactly one terminal outcome. *)
let prop_conservation =
  qcheck ~count:25 "conservation: sent = delivered + all drops"
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 1 2))
    (fun (seed, queue_cap) ->
      let trace = Trace.create () in
      let env =
        env_with ~seed ~capacity:0.25 ~queue_cap ~policy:Network.Drop_tail ~trace ()
        |> Env.with_loss_rate 0.05
      in
      let r = Driver.run_csr_env ~env ~csr:(Csr.of_graph (graph ())) ~workload:pressure_workload () in
      let count k =
        List.length (List.filter (fun e -> e.Trace.kind = k) (Trace.events trace))
      in
      let sent = count Trace.Sent in
      sent = r.Driver.wire_messages
      && sent
         = count Trace.Delivered + count Trace.Dropped_link + count Trace.Dropped_crash
           + count Trace.Dropped_random + count Trace.Dropped_queue
      && count Trace.Dropped_queue = r.Driver.dropped_queue)

(* Engine byte-identity: the whole lhg-traffic/1 document, queued
   streams included, must not depend on the event engine. *)
let prop_engine_identity =
  qcheck ~count:20 "Calendar vs Heap: byte-identical lhg-traffic/1"
    QCheck2.Gen.(pair (int_bound 10_000) (oneofl [ Workload.Periodic; Workload.Poisson ]))
    (fun (seed, arrival) ->
      let workload = pressure_workload |> Workload.with_arrival arrival in
      let doc engine =
        let env =
          env_with ~seed ~capacity:0.25 ~queue_cap:2 ~policy:Network.Drop_tail ()
          |> Env.with_engine engine
        in
        let r = Driver.run_csr_env ~env ~csr:(Csr.of_graph (graph ())) ~workload () in
        Scenario.report_traffic ~topology:"kdiamond" ~n:12 ~k:3 ~seed r
      in
      String.equal (doc Sim.Calendar) (doc Sim.Heap))

let test_block_never_sheds () =
  let g = graph () in
  let workload = pressure_workload in
  let tight =
    Driver.run_csr_env
      ~env:(env_with ~seed:3 ~capacity:0.05 ~queue_cap:1 ~policy:Network.Drop_tail ())
      ~csr:(Csr.of_graph g) ~workload ()
  in
  let block =
    Driver.run_csr_env
      ~env:(env_with ~seed:3 ~capacity:0.05 ~queue_cap:1 ~policy:Network.Block ())
      ~csr:(Csr.of_graph g) ~workload ()
  in
  check_bool "drop-tail sheds on a tight queue" true (tight.Driver.dropped_queue > 0);
  check_int "block never drops" 0 block.Driver.dropped_queue;
  check_bool "block covers everything" true block.Driver.all_covered;
  check_bool "block pays in delay instead" true
    (block.Driver.p99_delay >= tight.Driver.p99_delay);
  check_bool "backlog visible under block" true (block.Driver.max_queue_backlog >= 1)

let test_free_run_matches_flood_costs () =
  (* without capacity the driver is plain repeated flooding: chunks
     all cover, zero drops, delays bounded by the diameter *)
  let r =
    Driver.run_csr_env
      ~env:(Env.make ~seed:7 ())
      ~csr:(Csr.of_graph (graph ())) ~workload:Workload.default ()
  in
  check_bool "all covered" true r.Driver.all_covered;
  check_bool "delivery fraction 1" true (r.Driver.delivery_fraction = 1.0);
  check_int "no queue drops" 0 r.Driver.dropped_queue;
  check_int "no backlog" 0 r.Driver.max_queue_backlog;
  check_int "deliveries = chunks * (n-1)" (4 * 8 * 11) r.Driver.deliveries;
  check_bool "throughput positive" true (r.Driver.throughput > 0.0)

let test_workload_validation () =
  let n = 12 in
  let bad w = match Workload.validate w ~n with Error _ -> true | Ok () -> false in
  check_bool "negative rate" true (bad (Workload.default |> Workload.with_rate (-1.0)));
  check_bool "nan rate" true (bad (Workload.default |> Workload.with_rate Float.nan));
  check_bool "zero chunks" true (bad (Workload.default |> Workload.with_chunks_per_source 0));
  check_bool "too many sources" true (bad (Workload.default |> Workload.with_source_count 13));
  check_bool "out of range source" true (bad (Workload.default |> Workload.with_sources [ 12 ]));
  check_bool "duplicate sources" true (bad (Workload.default |> Workload.with_sources [ 1; 1 ]));
  check_bool "default is valid" false (bad Workload.default);
  check_bool "spread sources are distinct" true
    (let s = Workload.resolve_sources (Workload.default |> Workload.with_source_count 5) ~n in
     List.length (List.sort_uniq compare s) = 5);
  check_bool "explicit sources win" true
    (Workload.resolve_sources (Workload.default |> Workload.with_sources [ 3; 7 ]) ~n = [ 3; 7 ]);
  Alcotest.check_raises "driver rejects crashed source"
    (Invalid_argument "Traffic.run: source 0 is crashed at t = 0")
    (fun () ->
      ignore
        (Driver.run_csr_env
           ~env:(Env.make ~crashed:[ 0 ] ())
           ~csr:(Csr.of_graph (graph ())) ~workload:Workload.default ()))

let test_chaos_midstream () =
  (* crash a source mid-stream: its later chunks are skipped, and with
     a recovery the post-plan chunks measure a recovery time *)
  let g = graph () in
  let mk l = Chaos.Plan.make (List.map (fun (at, event) -> { Chaos.Plan.at; event }) l) in
  let workload =
    Workload.default |> Workload.with_source_count 2 |> Workload.with_chunks_per_source 4
    |> Workload.with_rate 0.1
  in
  let crash_source = mk [ (15.0, Chaos.Plan.Crash 0) ] in
  let r =
    Driver.run_csr_env ~env:(Env.make ~seed:5 ()) ~plan:crash_source ~csr:(Csr.of_graph g) ~workload ()
  in
  check_bool "later chunks of the crashed source are skipped" true (r.Driver.chunks_skipped > 0);
  check_bool "time to run clean measured against survivors" true (r.Driver.recovery_time >= 0.0);
  (* a plan with no degrading event has nothing to recover from *)
  let benign = mk [ (5.0, Chaos.Plan.Loss_rate 0.0) ] in
  let rb = Driver.run_csr_env ~env:(Env.make ~seed:5 ()) ~plan:benign ~csr:(Csr.of_graph g) ~workload () in
  check_bool "no degrading event -> recovery_time = -1" true (rb.Driver.recovery_time = -1.0);
  let crash_recover = mk [ (15.0, Chaos.Plan.Crash 0); (25.0, Chaos.Plan.Recover 0) ] in
  let r2 =
    Driver.run_csr_env ~env:(Env.make ~seed:5 ()) ~plan:crash_recover ~csr:(Csr.of_graph g) ~workload ()
  in
  check_bool "recovery time measured" true (r2.Driver.recovery_time >= 0.0);
  check_bool "stream recovers" true r2.Driver.all_covered

let test_json_shape () =
  let r =
    Driver.run_csr_env ~env:(Env.make ~seed:1 ()) ~csr:(Csr.of_graph (graph ())) ~workload:Workload.default ()
  in
  let doc = Scenario.report_traffic ~topology:"kdiamond" ~n:12 ~k:3 ~seed:1 r in
  let contains needle =
    let nl = String.length needle and hl = String.length doc in
    let rec go i = i + nl <= hl && (String.sub doc i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle -> check_bool needle true (contains needle))
    [
      {|"schema": "lhg-traffic/1"|};
      {|"workload"|};
      {|"arrival": "periodic"|};
      {|"wire"|};
      {|"delay"|};
      {|"summary"|};
      {|"all_covered": true|};
    ];
  (* determinism: the document is a pure function of (env, workload) *)
  let r' =
    Driver.run_csr_env ~env:(Env.make ~seed:1 ()) ~csr:(Csr.of_graph (graph ())) ~workload:Workload.default ()
  in
  check_bool "byte-identical rerun" true
    (String.equal doc (Scenario.report_traffic ~topology:"kdiamond" ~n:12 ~k:3 ~seed:1 r'))

(* Trees dissemination: a clean striped stream costs exactly
   injected × (n−1) wire messages — the whole point of the strategy —
   and still covers everyone. *)
let test_trees_dissemination_costs () =
  let g = Lhg_core.Build.kdiamond_exn ~n:66 ~k:4 in
  let workload =
    Workload.default |> Workload.with_dissemination Workload.Trees
    |> Workload.with_source_count 3 |> Workload.with_chunks_per_source 5
  in
  let r = Driver.run_csr_env ~env:(Env.make ~seed:11 ()) ~csr:(Csr.of_graph g.Lhg_core.Build.graph) ~workload () in
  check_bool "all covered" true r.Driver.all_covered;
  check_int "no fallbacks on a clean run" 0 r.Driver.tree_fallbacks;
  check_int "wire = injected * (n-1)" (r.Driver.chunks_injected * 65) r.Driver.wire_messages;
  check_int "deliveries = injected * (n-1)" (r.Driver.chunks_injected * 65) r.Driver.deliveries

(* Mid-stream link chaos under Trees: the dead tree edges force flood
   fallbacks, yet every chunk still reaches every survivor. *)
let test_trees_chaos_fallback () =
  let g = Lhg_core.Build.kdiamond_exn ~n:66 ~k:4 in
  let csr = Graph_core.Csr.of_graph g.Lhg_core.Build.graph in
  let pack = Graph_core.Tree_pack.pack csr ~source:0 in
  (* down a tree-0 edge of source 0 while its stream is in flight *)
  let u, v = List.hd (List.rev (Graph_core.Tree_pack.edges pack ~tree:0)) in
  let plan =
    Chaos.Plan.make [ { Chaos.Plan.at = 25.0; event = Chaos.Plan.Link_down (u, v) } ]
  in
  let workload =
    Workload.default |> Workload.with_dissemination Workload.Trees
    |> Workload.with_sources [ 0 ] |> Workload.with_chunks_per_source 10
    |> Workload.with_rate 0.1
  in
  let r = Driver.run_csr_env ~env:(Env.make ~seed:11 ()) ~plan ~csr:(Csr.of_graph g.Lhg_core.Build.graph) ~workload () in
  check_bool "fallbacks exercised" true (r.Driver.tree_fallbacks > 0);
  check_bool "still all covered" true r.Driver.all_covered;
  check_bool "costs more than pure trees" true
    (r.Driver.wire_messages > r.Driver.chunks_injected * 65)

(* All three strategies are engine- and rerun-stable; the reused dedup
   scratch buffer must never leak state between runs. *)
let prop_dissemination_identity =
  qcheck ~count:12 "every strategy: engine + rerun byte-identity"
    QCheck2.Gen.(
      pair (int_bound 10_000) (oneofl [ Workload.Flood; Workload.Trees; Workload.Gossip ]))
    (fun (seed, dissemination) ->
      let workload = pressure_workload |> Workload.with_dissemination dissemination in
      let doc engine =
        let env =
          env_with ~seed ~capacity:0.5 ~queue_cap:4 ~policy:Network.Block ()
          |> Env.with_engine engine
        in
        let r = Driver.run_csr_env ~env ~csr:(Csr.of_graph (graph ())) ~workload () in
        Scenario.report_traffic ~topology:"kdiamond" ~n:12 ~k:3 ~seed r
      in
      let a = doc Sim.Calendar in
      String.equal a (doc Sim.Heap) && String.equal a (doc Sim.Calendar))

let test_hot_links_reported () =
  let r =
    Driver.run_csr_env
      ~env:(env_with ~seed:3 ~capacity:0.25 ~queue_cap:2 ~policy:Network.Block ())
      ~csr:(Csr.of_graph (graph ())) ~workload:pressure_workload ()
  in
  check_bool "some hot links under capacity" true (List.length r.Driver.hot_links > 0);
  check_bool "at most five" true (List.length r.Driver.hot_links <= 5);
  let peaks = List.map (fun (_, _, p) -> p) r.Driver.hot_links in
  check_bool "sorted by peak, descending" true (List.sort (fun a b -> compare b a) peaks = peaks);
  check_bool "hottest peak = max backlog" true
    (match peaks with p :: _ -> p >= r.Driver.max_queue_backlog | [] -> false);
  let free =
    Driver.run_csr_env ~env:(Env.make ~seed:3 ()) ~csr:(Csr.of_graph (graph ())) ~workload:pressure_workload ()
  in
  check_bool "no capacity -> no hot links" true (free.Driver.hot_links = [])

(* Escalation accounting after the dedup fix: [tree_fallbacks] counts
   distinct (source, tree, node) escalation points while
   [tree_fallback_bursts] keeps the old per-forward tally — the value
   the field used to report, which inflates with every chunk striped
   over the same broken tree. Both are pinned on a fixed two-crash
   scenario so a regression in either direction is loud: 356 raw
   bursts collapse to 14 distinct fault sites. *)
let test_fallback_dedup_pin () =
  let graph = (Lhg_core.Build.kdiamond_exn ~n:46 ~k:4).Lhg_core.Build.graph in
  let workload =
    Workload.default |> Workload.with_dissemination Workload.Trees
    |> Workload.with_source_count 4 |> Workload.with_chunks_per_source 64
  in
  let plan =
    Chaos.Plan.make
      [
        { Chaos.Plan.at = 100.0; event = Chaos.Plan.Crash 7 };
        { Chaos.Plan.at = 140.0; event = Chaos.Plan.Crash 12 };
      ]
  in
  let r = Driver.run_csr_env ~env:(Env.make ~seed:1 ()) ~plan ~csr:(Csr.of_graph graph) ~workload () in
  check_int "distinct escalation points (deduped)" 14 r.Driver.tree_fallbacks;
  check_int "raw escalation bursts (the old, inflated count)" 356 r.Driver.tree_fallback_bursts;
  check_bool "dedup only shrinks" true
    (r.Driver.tree_fallback_bursts >= r.Driver.tree_fallbacks)

(* Allocation pin: a flood stream's per-message work allocates nothing.
   Delays land in a float buffer, the percentiles select in place and
   the event loop stays unboxed, so a whole run at n = 16386 (4 sources
   x 1 chunk, ~197k wire messages) costs under one minor word per wire
   message; what grows with n or with the stream is allocated directly
   in the major heap. *)
let test_driver_allocation () =
  let spec =
    { Scenario.Spec.default with Scenario.Spec.topology = "kdiamond"; n = 16386; k = 4 }
  in
  let csr =
    match Scenario.Spec.csr spec with Ok c -> c | Error e -> Alcotest.failf "csr: %s" e
  in
  let workload =
    Workload.default |> Workload.with_source_count 4 |> Workload.with_chunks_per_source 1
  in
  let w0 = Gc.minor_words () in
  let r = Driver.run_csr_env ~env:(Env.default |> Env.with_seed 1) ~csr ~workload () in
  let words = Gc.minor_words () -. w0 in
  check_bool "all covered" true r.Driver.all_covered;
  let per_message = words /. float_of_int r.Driver.wire_messages in
  check_bool
    (Printf.sprintf "%.4f minor words per wire message (bound 1)" per_message)
    true (per_message <= 1.0)

(* Allocation pins for the capacity path: a capacity-1 Block stream on
   kdiamond n = 1026 (4 sources x 64 chunks at rate 0.7, about 0.8M
   wire messages), with Obs off and with an enabled registry. Link
   admission is inlined into the send, and the arrival time goes to the
   simulator through its float cell, not as an argument, so it is not
   boxed even where the build passes -opaque (dune's dev profile) and
   nothing inlines across modules. With Obs on, the link backlog is
   observed as an int and the delays are observed from their buffer
   after the run, so recording boxes nothing either. *)
let capacity_stream_words_per_message obs =
  let spec =
    { Scenario.Spec.default with Scenario.Spec.topology = "kdiamond"; n = 1026; k = 4 }
  in
  let csr =
    match Scenario.Spec.csr spec with Ok c -> c | Error e -> Alcotest.failf "csr: %s" e
  in
  let workload =
    Workload.default |> Workload.with_source_count 4 |> Workload.with_chunks_per_source 64
    |> Workload.with_rate 0.7
  in
  let env =
    env_with ~seed:1 ~capacity:1.0 ~queue_cap:8 ~policy:Network.Block () |> Env.with_obs obs
  in
  let w0 = Gc.minor_words () in
  let r = Driver.run_csr_env ~env ~csr ~workload () in
  let words = Gc.minor_words () -. w0 in
  check_bool "all covered" true r.Driver.all_covered;
  words /. float_of_int r.Driver.wire_messages

let test_capacity_stream_allocation () =
  let per_message = capacity_stream_words_per_message Obs.Registry.nil in
  check_bool
    (Printf.sprintf "%.4f minor words per wire message (bound 1)" per_message)
    true (per_message <= 1.0)

(* The paper-scale streams of EXPERIMENTS.md B7 and B8: kdiamond and
   the random k-regular configuration model at n = 1026, k = 4, seed 7,
   through capacity-1 links with queue cap 8. Every bound below is on
   virtual time or counts, so it is exact and deterministic. *)
let at_scale_kdiamond =
  lazy
    (Graph_core.Csr.of_graph (Lhg_core.Build.kdiamond_exn ~n:1026 ~k:4).Lhg_core.Build.graph)

let at_scale_random_regular =
  lazy
    (match Topo.Random_regular.make (Graph_core.Prng.create ~seed:7) ~n:1026 ~k:4 with
    | Ok g -> Graph_core.Csr.of_graph g
    | Error e -> Alcotest.failf "random_regular: %s" e)

let at_scale_run ?policy ?plan ~chunks ~rate csr dissemination =
  let workload =
    Workload.default |> Workload.with_source_count 4 |> Workload.with_chunks_per_source chunks
    |> Workload.with_rate rate |> Workload.with_dissemination dissemination
  in
  Driver.run_csr_env
    ~env:(env_with ~seed:7 ~capacity:1.0 ~queue_cap:8 ?policy ())
    ?plan ~csr ~workload ()

(* B7: 4 x 8 chunks at rate 0.05 (drop-tail) deliver everything on
   both topologies, with ordered delay percentiles. *)
let test_b7_lhg_vs_random_regular () =
  List.iter
    (fun (name, csr) ->
      let r = at_scale_run ~chunks:8 ~rate:0.05 csr Workload.Flood in
      check_bool (name ^ ": delivery 1.0") true (r.Driver.delivery_fraction = 1.0);
      check_bool
        (Printf.sprintf "%s: p50 %.2f <= p95 %.2f <= p99 %.2f" name r.Driver.p50_delay
           r.Driver.p95_delay r.Driver.p99_delay)
        true
        (r.Driver.p50_delay <= r.Driver.p95_delay && r.Driver.p95_delay <= r.Driver.p99_delay))
    [
      ("kdiamond", Lazy.force at_scale_kdiamond);
      ("random_regular", Lazy.force at_scale_random_regular);
    ]

(* B8: on a congestion-dominated workload (4 x 96 chunks at rate 0.7,
   blocking queues) tree striping cuts flood's p95 to at most 0.85x,
   closes at least half the p95 gap to the random-regular flood, and
   spends exactly n - 1 = 1025 messages per chunk. *)
let gap_run ?plan csr dissemination =
  at_scale_run ~policy:Network.Block ?plan ~chunks:96 ~rate:0.7 csr dissemination

let test_b8_trees_close_the_gap () =
  let kd = Lazy.force at_scale_kdiamond and rr = Lazy.force at_scale_random_regular in
  (* the four runs are independent: stream half of them on a second domain *)
  let half = Domain.spawn (fun () -> (gap_run kd Workload.Trees, gap_run kd Workload.Gossip)) in
  let flood = gap_run kd Workload.Flood in
  let rr_flood = gap_run rr Workload.Flood in
  let trees, gossip = Domain.join half in
  List.iter
    (fun (name, r) ->
      check_bool
        (Printf.sprintf "%s delivery %.6f >= 0.999" name r.Driver.delivery_fraction)
        true
        (r.Driver.delivery_fraction >= 0.999))
    [ ("lhg_flood", flood); ("lhg_trees", trees); ("lhg_gossip", gossip); ("rr_flood", rr_flood) ];
  let p95 r = r.Driver.p95_delay in
  check_bool
    (Printf.sprintf "trees p95 %.2f <= 0.85 x flood p95 %.2f" (p95 trees) (p95 flood))
    true
    (p95 trees <= 0.85 *. p95 flood);
  let gap_closed = (p95 flood -. p95 trees) /. (p95 flood -. p95 rr_flood) in
  check_bool (Printf.sprintf "gap closed %.2f >= 0.5" gap_closed) true (gap_closed >= 0.5);
  check_int "clean trees run: no fallbacks" 0 trees.Driver.tree_fallbacks;
  check_int "clean trees run: 1025 messages per chunk" (1025 * trees.Driver.chunks_injected)
    trees.Driver.wire_messages

(* B8 chaos: 3 = k - 1 links down at t = 40, two of them edges of the
   first source's own trees, while the congested trees stream is in
   flight. The dead tree edges force fallbacks; every chunk still
   reaches every node. *)
let test_b8_link_chaos () =
  let csr = Lazy.force at_scale_kdiamond in
  let source =
    List.hd (Workload.resolve_sources (Workload.default |> Workload.with_source_count 4) ~n:1026)
  in
  let pack = Graph_core.Tree_pack.pack csr ~source in
  let tree i = Graph_core.Tree_pack.edges pack ~tree:i in
  let plan =
    Chaos.Plan.make
      (List.map
         (fun (u, v) -> { Chaos.Plan.at = 40.0; event = Chaos.Plan.Link_down (u, v) })
         [ List.hd (tree 0); List.hd (tree 1); List.hd (List.rev (tree 0)) ])
  in
  let r = gap_run ~plan csr Workload.Trees in
  check_bool "all covered" true r.Driver.all_covered;
  check_bool "fallbacks exercised" true (r.Driver.tree_fallbacks > 0)

let test_capacity_stream_allocation_obs () =
  let per_message = capacity_stream_words_per_message (Obs.Registry.create ()) in
  check_bool
    (Printf.sprintf "%.4f minor words per wire message with Obs on (bound 1)" per_message)
    true (per_message <= 1.0)

(* The histograms of one small capacity stream (kdiamond n = 258, 4 x 16
   chunks at rate 0.7, capacity 1, queue cap 8, Block), pinned to the
   values the simulator gave when every observation was a float passed
   at the moment it happened: per-bucket counts, totals and sums to the
   last bit. An integer backlog observed as an int, and delays observed
   from their buffer after the run, must land in the same buckets and
   add up in the same order. The delay sum is not an integer, so
   observing the delays in another order (after the percentile
   selection has permuted the buffer, say) changes its last bits. *)
let test_capacity_stream_histograms () =
  let spec = { Scenario.Spec.default with Scenario.Spec.topology = "kdiamond"; n = 258; k = 4 } in
  let csr =
    match Scenario.Spec.csr spec with Ok c -> c | Error e -> Alcotest.failf "csr: %s" e
  in
  let obs = Obs.Registry.create () in
  let env = env_with ~seed:1 ~capacity:1.0 ~queue_cap:8 ~policy:Network.Block () |> Env.with_obs obs in
  let workload =
    Workload.default |> Workload.with_source_count 4 |> Workload.with_chunks_per_source 16
    |> Workload.with_rate 0.7
  in
  let r = Driver.run_csr_env ~env ~csr ~workload () in
  check_int "wire messages" 49_856 r.Driver.wire_messages;
  check_int "deliveries" 16_448 r.Driver.deliveries;
  let pin name ~total ~sum ~counts =
    match Obs.Registry.find_histogram obs name with
    | None -> Alcotest.failf "%s not registered" name
    | Some h ->
        check_int (name ^ " total") total (Obs.Registry.histogram_count h);
        Alcotest.(check string)
          (name ^ " sum") sum
          (Printf.sprintf "%.17g" (Obs.Registry.histogram_sum h));
        let nonzero = ref [] in
        Array.iteri
          (fun i c -> if c > 0 then nonzero := (i, c) :: !nonzero)
          (Obs.Registry.histogram_counts h);
        Alcotest.(check (list (pair int int))) (name ^ " counts") counts (List.rev !nonzero)
  in
  pin "net.link_queue" ~total:49_856 ~sum:"93410"
    ~counts:
      [
        (0, 23314); (1, 9813); (2, 5197); (3, 3161); (4, 1905); (5, 1300); (6, 1020); (7, 790);
        (8, 634); (9, 550); (10, 453); (11, 356); (12, 305); (13, 240); (14, 324); (15, 169);
        (16, 223); (17, 39); (18, 24); (19, 7); (20, 5); (21, 3); (22, 2); (23, 1); (24, 2);
        (25, 1); (26, 2); (27, 2); (28, 3); (29, 1); (30, 3); (31, 2); (32, 5);
      ];
  pin "net.latency" ~total:49_856 ~sum:"49856" ~counts:[ (0, 49856) ];
  pin "traffic.delay" ~total:16_448 ~sum:"420516.71428572264"
    ~counts:[ (1, 83); (2, 189); (3, 985); (4, 3277); (5, 6641); (6, 5273) ]

let suite =
  [
    prop_fifo_no_reorder;
    prop_conservation;
    prop_engine_identity;
    prop_dissemination_identity;
    Alcotest.test_case "trees dissemination: n-1 per chunk" `Quick
      test_trees_dissemination_costs;
    Alcotest.test_case "trees + link chaos: fallback, still covered" `Quick
      test_trees_chaos_fallback;
    Alcotest.test_case "fallback accounting: bursts vs deduped" `Quick test_fallback_dedup_pin;
    Alcotest.test_case "hot links reported" `Quick test_hot_links_reported;
    Alcotest.test_case "block never sheds" `Quick test_block_never_sheds;
    Alcotest.test_case "free run = repeated flooding" `Quick test_free_run_matches_flood_costs;
    Alcotest.test_case "workload validation" `Quick test_workload_validation;
    Alcotest.test_case "chaos mid-stream" `Quick test_chaos_midstream;
    Alcotest.test_case "lhg-traffic/1 shape + determinism" `Quick test_json_shape;
    Alcotest.test_case "flood stream allocation" `Quick test_driver_allocation;
    Alcotest.test_case "B7: LHG vs random regular, n=1026" `Slow test_b7_lhg_vs_random_regular;
    Alcotest.test_case "B8: trees close the p95 gap, n=1026" `Slow test_b8_trees_close_the_gap;
    Alcotest.test_case "B8: 3 links down mid-stream, n=1026" `Slow test_b8_link_chaos;
    Alcotest.test_case "capacity stream allocation" `Quick test_capacity_stream_allocation;
    Alcotest.test_case "capacity stream allocation, Obs on" `Quick
      test_capacity_stream_allocation_obs;
    Alcotest.test_case "capacity stream histograms" `Quick test_capacity_stream_histograms;
  ]
