(* Scenario: churn under load behind one record.

   The load-bearing claims, per ISSUE 10: validation is the single
   gate with the CLI's wording, [lower] turns committed controller
   epochs into a Reconfig timeline the driver accepts (prefix
   join/leave ranges, interval-spaced commits, union snapshot), a run
   applies every epoch while the stream sustains delivery, and the
   lhg-scenario/1 document is byte-identical across event engines and
   pool sizes. *)

open Helpers
module Spec = Scenario.Spec
module Controller = Overlay.Controller
module Workload = Traffic.Workload
module Reconfig = Traffic.Reconfig
module Driver = Traffic.Driver

let check_string = Alcotest.(check string)

(* a small but real churn-under-load scenario: trees dissemination,
   bounded links, two priority bands, a dozen controller steps *)
let small ?(engine = Netsim.Sim.Calendar) ?(jobs = 1) () =
  let workload =
    Workload.default
    |> Workload.with_source_count 2
    |> Workload.with_chunks_per_source 30
    |> Workload.with_rate 0.5
    |> Workload.with_dissemination Workload.Trees
  in
  {
    Scenario.spec =
      { Spec.default with Spec.topology = "kdiamond"; n = 24; k = 4; seed = 11; engine; jobs };
    traffic =
      {
        Scenario.default_traffic with
        Scenario.workload;
        capacity = Some 2.0;
        bands = 2;
        min_delivery = 0.9;
      };
    controller = { Scenario.default_controller with Scenario.steps = 12; batch = 3 };
    epoch_interval = 30.0;
  }

let test_validate_wording () =
  let t = small () in
  let expect msg t' =
    match Scenario.validate t' with
    | Ok () -> Alcotest.failf "expected %S" msg
    | Error e -> check_string msg msg e
  in
  (match Scenario.validate t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "small scenario should validate: %s" e);
  expect "scenario supports kinds ktree, kdiamond, jd, harary"
    { t with Scenario.spec = { t.Scenario.spec with Spec.topology = "cycle"; k = 2 } };
  expect "--bands must be between 1 and 4"
    { t with Scenario.traffic = { t.Scenario.traffic with Scenario.bands = 5 } };
  expect "--capacity must be a positive finite rate"
    { t with Scenario.traffic = { t.Scenario.traffic with Scenario.capacity = Some 0.0 } };
  expect "--queue-cap must be >= 1"
    { t with Scenario.traffic = { t.Scenario.traffic with Scenario.queue_cap = Some 0 } };
  expect "--epoch-interval must be a positive finite time" { t with Scenario.epoch_interval = 0.0 };
  expect "--batch must be >= 1"
    { t with Scenario.controller = { t.Scenario.controller with Scenario.batch = 0 } };
  expect "--steps must be >= 0"
    { t with Scenario.controller = { t.Scenario.controller with Scenario.steps = -1 } };
  List.iter
    (fun p ->
      expect "--join-probability must be between 0 and 1"
        {
          t with
          Scenario.controller = { t.Scenario.controller with Scenario.join_probability = Some p };
        })
    [ -0.1; 2.0; Float.nan ];
  expect "--plans-per-level must be >= 1"
    {
      t with
      Scenario.controller = { t.Scenario.controller with Scenario.chaos_plans_per_level = 0 };
    };
  expect "--max-faults must be >= 0"
    {
      t with
      Scenario.controller = { t.Scenario.controller with Scenario.chaos_max_faults = Some (-1) };
    };
  (* the chaos subcommand's group, same wording *)
  match
    Scenario.validate_chaos_audit { Scenario.default_chaos_audit with Scenario.plans_per_level = 0 }
  with
  | Error e -> check_string "chaos audit plans" "--plans-per-level must be >= 1" e
  | Ok () -> Alcotest.fail "plans_per_level = 0 should be rejected"

(* [lower] invariants against a real pre-played controller trace *)
let test_lower () =
  let family = Option.get (Scenario.family_of_topology "kdiamond") in
  let ctrl =
    match Controller.create ~verify:Controller.Cached ~family ~k:4 ~n:24 () with
    | Ok c -> c
    | Error e -> Alcotest.failf "controller: %s" (Overlay.Error.to_string e)
  in
  let trace = Controller.random_trace ~seed:11 ~family ~k:4 ~n0:24 ~steps:12 () in
  let epochs =
    match Controller.run ~batch:3 ctrl trace with
    | Ok e -> e
    | Error e -> Alcotest.failf "run: %s" (Overlay.Error.to_string e)
  in
  let base = Controller.base_graph ctrl in
  let union_g, rc = Scenario.lower ~epoch_interval:30.0 ~tree_count:(Some 2) ~base epochs in
  check_int "union graph size" rc.Reconfig.union_n (Graph_core.Graph.n union_g);
  check_int "member0 length" rc.Reconfig.union_n (Array.length rc.Reconfig.member0);
  check_bool "member0 is the base prefix" true
    (Array.for_all Fun.id (Array.sub rc.Reconfig.member0 0 (Graph_core.Graph.n base)));
  (* the union contains the base and every epoch's added edges *)
  Graph_core.Graph.iter_edges base (fun u v ->
      check_bool "base edge in union" true (Graph_core.Graph.has_edge union_g u v));
  List.iter2
    (fun (e : Controller.epoch) (re : Reconfig.epoch) ->
      check_int "index preserved" e.Controller.index re.Reconfig.index;
      Alcotest.(check (float 1e-9))
        "commit at interval * (index+1)"
        (30.0 *. float_of_int (e.Controller.index + 1))
        re.Reconfig.at;
      check_bool "repack iff rebuild" true
        (re.Reconfig.repack = (e.Controller.strategy = Controller.Rebuild));
      check_int "joins cover the growth"
        (max 0 (e.Controller.n_after - e.Controller.n_before))
        (List.length re.Reconfig.joins);
      check_int "leaves cover the shrink"
        (max 0 (e.Controller.n_before - e.Controller.n_after))
        (List.length re.Reconfig.leaves);
      List.iter
        (fun (u, v) ->
          check_bool "link_up edge in union" true (Graph_core.Graph.has_edge union_g u v))
        re.Reconfig.link_up)
    epochs rc.Reconfig.epochs;
  (* the lowered timeline is driver-acceptable for sources inside n0 *)
  match Reconfig.validate rc ~sources:[ 0; 1 ] with
  | Ok () -> ()
  | Error e -> Alcotest.failf "lowered reconfig invalid: %s" e

let run_ok t =
  match Scenario.run t with
  | Ok o -> o
  | Error e -> Alcotest.failf "scenario run: %s" e

let test_run_applies_epochs () =
  let t = small () in
  let o = run_ok t in
  let r = o.Scenario.result in
  check_bool "has epochs" true (o.Scenario.epochs <> []);
  check_int "every epoch applied mid-stream" (List.length o.Scenario.epochs)
    r.Driver.epochs_applied;
  check_bool "every epoch verified" true o.Scenario.all_verified;
  check_bool "delivery holds under churn" true (r.Driver.delivery_fraction >= 0.9);
  check_bool "SLO gate reflects the floor" true o.Scenario.slo_ok;
  (* this trace is repair-only: every re-stripe must patch, never re-pack *)
  let rebuilds =
    List.filter (fun (e : Controller.epoch) -> e.Controller.strategy = Controller.Rebuild)
      o.Scenario.epochs
  in
  if rebuilds = [] then check_int "no full re-pack on repair epochs" 0 r.Driver.restripe_repacked;
  check_bool "re-stripes happened" true (r.Driver.restripe_patched > 0);
  check_bool "commits announced on band 0" true (r.Driver.control_messages > 0)

let test_report_engine_and_pool_identity () =
  let a = Scenario.report (small ()) (run_ok (small ())) in
  let b =
    Scenario.report
      (small ~engine:Netsim.Sim.Heap ())
      (run_ok (small ~engine:Netsim.Sim.Heap ()))
  in
  let c = Scenario.report (small ~jobs:2 ()) (run_ok (small ~jobs:2 ())) in
  check_string "calendar = heap" a b;
  check_string "jobs 1 = jobs 2" a c;
  check_bool "schema stamped" true
    (String.length a > 0
    &&
    let sub = {|"schema": "lhg-scenario/1"|} in
    let rec find i =
      i + String.length sub <= String.length a && (String.sub a i (String.length sub) = sub || find (i + 1))
    in
    find 0)

let test_slo_gate_fails () =
  let t = small () in
  let t =
    { t with Scenario.traffic = { t.Scenario.traffic with Scenario.max_p95 = 0.001 } }
  in
  let o = run_ok t in
  check_bool "impossible p95 ceiling trips the gate" false o.Scenario.slo_ok

(* EXPERIMENTS.md B10 at paper scale: a 200-step controller trace
   (batch 8) committed mid-stream on kdiamond n = 1026, k = 4, seed 7,
   while 4 sources stream at rate 0.7 through capacity-1 blocking
   links with 2 priority bands. *)
let churn_at_scale ~chunks ~interval dissemination =
  let workload =
    Workload.default |> Workload.with_source_count 4 |> Workload.with_chunks_per_source chunks
    |> Workload.with_rate 0.7 |> Workload.with_dissemination dissemination
  in
  {
    Scenario.spec = { Spec.default with Spec.topology = "kdiamond"; n = 1026; k = 4; seed = 7 };
    traffic =
      {
        Scenario.default_traffic with
        Scenario.workload;
        capacity = Some 1.0;
        queue_policy = Some Netsim.Network.Block;
        bands = 2;
        min_delivery = 0.99;
      };
    controller = { Scenario.default_controller with Scenario.steps = 200; batch = 8 };
    epoch_interval = interval;
  }

(* Three runs under the same churn. 4 x 250 chunks with an epoch every
   12 time units: a million-message trees stream keeps delivery >= 0.99
   through every epoch, re-packs only on rebuild epochs (one pack per
   source), and runs clean again after the last degrading epoch.
   4 x 96 chunks with an epoch every 5 time units: tree striping keeps
   its congested p95 at most 0.85x flood's. The runs are independent,
   so the two congested ones stream on a second domain. *)
let test_b10_churn_under_load () =
  let congested =
    Domain.spawn (fun () ->
        let p95 d =
          (run_ok (churn_at_scale ~chunks:96 ~interval:5.0 d)).Scenario.result.Driver.p95_delay
        in
        let trees = p95 Workload.Trees in
        (trees, p95 Workload.Flood))
  in
  let o = run_ok (churn_at_scale ~chunks:250 ~interval:12.0 Workload.Trees) in
  let trees, flood = Domain.join congested in
  let r = o.Scenario.result in
  let rebuilds =
    List.length
      (List.filter
         (fun (e : Controller.epoch) -> e.Controller.strategy = Controller.Rebuild)
         o.Scenario.epochs)
  in
  check_bool
    (Printf.sprintf "%d wire messages >= 10^6" r.Driver.wire_messages)
    true
    (r.Driver.wire_messages >= 1_000_000);
  check_int "every epoch applied" (List.length o.Scenario.epochs) r.Driver.epochs_applied;
  check_bool "every epoch verified" true o.Scenario.all_verified;
  check_bool
    (Printf.sprintf "delivery %.4f >= 0.99" r.Driver.delivery_fraction)
    true
    (r.Driver.delivery_fraction >= 0.99);
  check_int "re-packs = 4 x rebuild epochs" (4 * rebuilds) r.Driver.restripe_repacked;
  check_bool "re-stripes patched" true (r.Driver.restripe_patched > 0);
  check_bool "commits announced on band 0" true (r.Driver.control_messages > 0);
  check_bool "recovers after the last degrading epoch" true (r.Driver.recovery_time >= 0.0);
  check_bool
    (Printf.sprintf "trees p95 %.2f <= 0.85 x flood p95 %.2f" trees flood)
    true (trees <= 0.85 *. flood)

let suite =
  [
    Alcotest.test_case "validate wording" `Quick test_validate_wording;
    Alcotest.test_case "lower: epochs onto the timeline" `Quick test_lower;
    Alcotest.test_case "run applies every epoch" `Quick test_run_applies_epochs;
    Alcotest.test_case "report: engine + pool identity" `Quick test_report_engine_and_pool_identity;
    Alcotest.test_case "SLO gate" `Quick test_slo_gate_fails;
    Alcotest.test_case "B10: churn under load, n=1026" `Slow test_b10_churn_under_load;
  ]
