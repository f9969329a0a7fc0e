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
    { t with Scenario.controller = { t.Scenario.controller with Scenario.steps = -1 } }

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

let suite =
  [
    Alcotest.test_case "validate wording" `Quick test_validate_wording;
    Alcotest.test_case "lower: epochs onto the timeline" `Quick test_lower;
    Alcotest.test_case "run applies every epoch" `Quick test_run_applies_epochs;
    Alcotest.test_case "report: engine + pool identity" `Quick test_report_engine_and_pool_identity;
    Alcotest.test_case "SLO gate" `Quick test_slo_gate_fails;
  ]
