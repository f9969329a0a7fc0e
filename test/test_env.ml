(* Flood.Env: the unified run environment — now the *sole* run
   configuration (the legacy optional-argument wrappers are gone). The
   builders must be plain field updates, run_env must be deterministic
   in the environment alone, and the capacity/queueing knobs must reach
   the network through Env.network_of_csr like every other field. *)

open Helpers
module Graph = Graph_core.Graph
module Env = Flood.Env
module Network = Netsim.Network
module Csr = Graph_core.Csr

let graph () = (Lhg_core.Build.kdiamond_exn ~n:18 ~k:3).Lhg_core.Build.graph

let test_builders () =
  let reg = Obs.Registry.create () in
  let env =
    Env.default |> Env.with_loss_rate 0.1 |> Env.with_processing_delay 0.25
    |> Env.with_crashed [ 2; 5 ]
    |> Env.with_failed_links [ (0, 3) ]
    |> Env.with_seed 99 |> Env.with_obs reg
  in
  check_bool "loss_rate" true (env.Env.loss_rate = 0.1);
  check_bool "processing_delay" true (env.Env.processing_delay = 0.25);
  check_bool "crashed" true (env.Env.crashed = [ 2; 5 ]);
  check_bool "failed_links" true (env.Env.failed_links = [ (0, 3) ]);
  check_bool "seed set" true (env.Env.seed = Some 99);
  check_bool "obs replaced" true (env.Env.obs == reg);
  check_int "seed_value reads the seed" 99 (Env.seed_value env);
  check_int "seed_value default is the sim default" 0x51 (Env.seed_value Env.default);
  check_bool "default has no hook" true (Env.default.Env.prepare = None);
  check_bool "default obs disabled" false (Obs.Registry.enabled Env.default.Env.obs)

let test_workload_builders () =
  let env =
    Env.default |> Env.with_link_capacity 2.0 |> Env.with_queue_cap 8
    |> Env.with_queue_policy Network.Block
  in
  check_bool "link_capacity" true (env.Env.link_capacity = Some 2.0);
  check_bool "queue_cap" true (env.Env.queue_cap = Some 8);
  check_bool "queue_policy" true (env.Env.queue_policy = Some Network.Block);
  check_bool "default has infinite links" true (Env.default.Env.link_capacity = None);
  let cleared = Env.without_link_capacity env in
  check_bool "without_link_capacity clears all three" true
    (cleared.Env.link_capacity = None && cleared.Env.queue_cap = None
   && cleared.Env.queue_policy = None)

let test_env_only_determinism () =
  (* the environment is the whole configuration: same env, same answer,
     on either engine *)
  let g = graph () in
  let env = Env.make ~loss_rate:0.2 ~crashed:[ 4 ] ~failed_links:[ (0, 3) ] ~seed:7 () in
  let a = Flood.Flooding.run_csr_env ~env ~csr:(Csr.of_graph g) ~source:0 () in
  let b = Flood.Flooding.run_csr_env ~env ~csr:(Csr.of_graph g) ~source:0 () in
  check_bool "run_env is a function of env" true (a = b);
  let heap =
    Flood.Flooding.run_csr_env ~env:(env |> Env.with_engine Netsim.Sim.Heap) ~csr:(Csr.of_graph g) ~source:0 ()
  in
  check_bool "identical across engines" true (a = heap)

let test_capacity_reaches_network () =
  (* with a finite capacity, flooding's fan-out serialises per link:
     completion stretches and (with unit rate) roughly doubles depth;
     without it, behaviour is exactly the infinite-bandwidth run *)
  let g = graph () in
  let free = Flood.Flooding.run_csr_env ~env:(Env.make ~seed:3 ()) ~csr:(Csr.of_graph g) ~source:0 () in
  let capped =
    Flood.Flooding.run_csr_env
      ~env:(Env.default |> Env.with_seed 3 |> Env.with_link_capacity 1.0)
      ~csr:(Csr.of_graph g) ~source:0 ()
  in
  check_bool "capped still covers" true capped.Flood.Flooding.covers_all_alive;
  check_bool "queueing delays completion" true
    (capped.Flood.Flooding.completion_time > free.Flood.Flooding.completion_time);
  check_int "same messages on the wire" free.Flood.Flooding.messages_sent
    capped.Flood.Flooding.messages_sent;
  (* one flood puts at most one message on each directed link, so
     drop-tail needs concurrent payloads to bite: three simultaneous
     one-chunk streams through a slow tight queue must shed load *)
  let multi env =
    let workload =
      Traffic.Workload.(
        default |> with_sources [ 0; 1; 2 ] |> with_chunks_per_source 1 |> with_rate 1.0)
    in
    Traffic.Driver.run_csr_env ~env ~csr:(Csr.of_graph g) ~workload ()
  in
  let wide = multi (Env.make ~seed:3 ()) in
  let tight =
    multi (Env.default |> Env.with_seed 3 |> Env.with_link_capacity 0.05 |> Env.with_queue_cap 1)
  in
  check_bool "infinite links cover everything" true wide.Traffic.Driver.all_covered;
  check_bool "drop-tail sheds under pressure" true
    (tight.Traffic.Driver.dropped_queue > 0
    && tight.Traffic.Driver.deliveries < wide.Traffic.Driver.deliveries)

let test_gossip_pif_validation () =
  let g = graph () in
  Alcotest.check_raises "pif rejects lossy channels"
    (Invalid_argument "Pif.run: loss_rate unsupported (echo accounting assumes reliable channels)")
    (fun () ->
      ignore (Flood.Pif.run_env ~env:(Env.make ~loss_rate:0.1 ()) ~csr:(Csr.of_graph g) ~source:0 ()));
  (* gossip consumes the env seed: different seeds, different spread *)
  let r5 = Flood.Gossip.run_env ~env:(Env.make ~seed:5 ()) ~csr:(Csr.of_graph g) ~source:0 ~fanout:1 ~ttl:3 () in
  let r5' = Flood.Gossip.run_env ~env:(Env.make ~seed:5 ()) ~csr:(Csr.of_graph g) ~source:0 ~fanout:1 ~ttl:3 () in
  check_bool "gossip deterministic in env" true
    (r5.Flood.Gossip.delivered = r5'.Flood.Gossip.delivered)

let test_runner_env () =
  let g = graph () in
  let reg = Obs.Registry.create () in
  let env = Env.make ~loss_rate:0.05 ~seed:9 ~obs:reg () in
  let r =
    Flood.Runner.flood_trials_env ~link_failures:1 ~env ~csr:(Csr.of_graph g) ~source:0 ~crash_count:2
      ~trials:12 ()
  in
  check_bool "hop_counts populated via enabled registry" true (r.Flood.Runner.hop_counts <> [||]);
  (* with the disabled default registry the env path records no hops *)
  let bare =
    Flood.Runner.flood_trials_env ~link_failures:1 ~env:(Env.make ~loss_rate:0.05 ~seed:9 ())
      ~csr:(Csr.of_graph g) ~source:0 ~crash_count:2 ~trials:12 ()
  in
  check_bool "disabled registry -> no hop_counts" true (bare.Flood.Runner.hop_counts = [||]);
  check_bool "same trials otherwise" true
    (bare.Flood.Runner.mean_coverage = r.Flood.Runner.mean_coverage)

let test_prepare_hook_runs () =
  (* a hook that crashes a node before the first send is equivalent to
     a static crash of the same node *)
  let g = graph () in
  let hook net = Network.crash net 4 in
  let hooked =
    Flood.Flooding.run_csr_env ~env:Env.(default |> with_seed 2 |> with_prepare hook) ~csr:(Csr.of_graph g)
      ~source:0 ()
  in
  let static =
    Flood.Flooding.run_csr_env ~env:(Env.make ~seed:2 ~crashed:[ 4 ] ()) ~csr:(Csr.of_graph g) ~source:0 ()
  in
  check_bool "hook crash = static crash" true
    (hooked.Flood.Flooding.delivered = static.Flood.Flooding.delivered)

let suite =
  [
    Alcotest.test_case "builders are field updates" `Quick test_builders;
    Alcotest.test_case "workload builders" `Quick test_workload_builders;
    Alcotest.test_case "env-only determinism" `Quick test_env_only_determinism;
    Alcotest.test_case "capacity reaches every run surface" `Quick test_capacity_reaches_network;
    Alcotest.test_case "gossip + pif validation" `Quick test_gossip_pif_validation;
    Alcotest.test_case "runner env path" `Quick test_runner_env;
    Alcotest.test_case "prepare hook" `Quick test_prepare_hook_runs;
  ]
