(* Fault-plan chaos engine: plan algebra and text format, executor
   semantics through Flood.Env's prepare hook, and the audit's empirical
   k−1 boundary on a real LHG. *)

open Helpers
module Graph = Graph_core.Graph
module Csr = Graph_core.Csr
module Connectivity = Graph_core.Connectivity
module Plan = Chaos.Plan
module Gen = Chaos.Gen
module Exec = Chaos.Exec
module Audit = Chaos.Audit
module Env = Flood.Env

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: unexpected error: %s" what e

let err_of what = function
  | Ok _ -> Alcotest.failf "%s: expected an error" what
  | Error e -> e

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ---------- Plan: construction, format, weight ---------- *)

let test_plan_make_sorts () =
  let p =
    Plan.make
      [
        { Plan.at = 2.0; event = Plan.Recover 3 };
        { Plan.at = 0.0; event = Plan.Crash 3 };
        { Plan.at = 1.0; event = Plan.Link_down (0, 4) };
      ]
  in
  let times = List.map (fun t -> t.Plan.at) (Plan.events p) in
  check_bool "ascending" true (times = [ 0.0; 1.0; 2.0 ]);
  check_bool "empty is_empty" true (Plan.is_empty Plan.empty);
  check_bool "non-empty" false (Plan.is_empty p);
  check_int "crash_victims" 1 (List.length (Plan.crash_victims p))

let test_plan_round_trip () =
  let p =
    Plan.make
      [
        { Plan.at = 0.0; event = Plan.Crash 3 };
        { Plan.at = 1.5; event = Plan.Link_down (0, 4) };
        { Plan.at = 2.0; event = Plan.Recover 3 };
        { Plan.at = 2.5; event = Plan.Partition [ 1; 2; 3 ] };
        { Plan.at = 4.0; event = Plan.Link_up (0, 4) };
        { Plan.at = 5.0; event = Plan.Heal };
        { Plan.at = 6.0; event = Plan.Loss_rate 0.05 };
      ]
  in
  let p' = ok_or_fail "round trip" (Plan.of_string (Plan.to_string p)) in
  check_bool "events survive to_string/of_string" true (Plan.events p' = Plan.events p)

let test_plan_parse () =
  let p =
    ok_or_fail "parse"
      (Plan.of_string "# comment\n\n0.0 crash 3\n1.5\tlink_down 0 4\n2 heal\n")
  in
  check_int "three events" 3 (List.length (Plan.events p));
  let e = err_of "bad keyword" (Plan.of_string "0.0 crash 1\n1.0 explode 2\n") in
  check_bool "error names line 2" true (contains e "line 2")

let test_plan_parse_errors () =
  let cases =
    [
      ("no time", "crash 3");
      ("bad time", "x crash 3");
      ("missing arg", "0.0 crash");
      ("bad loss", "0.0 loss_rate oops");
    ]
  in
  List.iter (fun (name, s) -> ignore (err_of name (Plan.of_string s))) cases

let test_plan_validate () =
  let g = petersen () in
  let csr = Csr.of_graph g in
  let check_ok name p = ok_or_fail name (Plan.validate csr (Plan.make p)) in
  let check_err name p = ignore (err_of name (Plan.validate csr (Plan.make p))) in
  check_ok "good plan"
    [
      { Plan.at = 0.0; event = Plan.Crash 3 };
      { Plan.at = 1.0; event = Plan.Link_down (0, 1) };
      { Plan.at = 2.0; event = Plan.Partition [ 0; 1 ] };
      { Plan.at = 3.0; event = Plan.Loss_rate 0.5 };
    ];
  check_err "vertex out of range" [ { Plan.at = 0.0; event = Plan.Crash 99 } ];
  check_err "non-edge link" [ { Plan.at = 0.0; event = Plan.Link_down (0, 2) } ];
  check_err "loss_rate = 1" [ { Plan.at = 0.0; event = Plan.Loss_rate 1.0 } ];
  check_err "empty partition" [ { Plan.at = 0.0; event = Plan.Partition [] } ];
  check_err "improper partition"
    [ { Plan.at = 0.0; event = Plan.Partition (List.init 10 Fun.id) } ];
  check_err "negative time" [ { Plan.at = -1.0; event = Plan.Heal } ]

let test_plan_weight () =
  let g = petersen () in
  let csr = Csr.of_graph g in
  let w p = Plan.weight csr (Plan.make p) in
  (* duplicates collapse; recovery does not refund the fault *)
  check_int "distinct crashes + links" 3
    (w
       [
         { Plan.at = 0.0; event = Plan.Crash 3 };
         { Plan.at = 1.0; event = Plan.Crash 3 };
         { Plan.at = 2.0; event = Plan.Recover 3 };
         { Plan.at = 3.0; event = Plan.Link_down (0, 1) };
         { Plan.at = 4.0; event = Plan.Link_down (1, 0) };
         { Plan.at = 5.0; event = Plan.Link_up (0, 1) };
         { Plan.at = 6.0; event = Plan.Crash 7 };
       ]);
  (* a partition's weight is the edges it cuts: petersen is 3-regular,
     so isolating one vertex downs exactly its 3 incident edges *)
  check_int "partition expands to cut edges" 3
    (w [ { Plan.at = 0.0; event = Plan.Partition [ 0 ] } ]);
  check_int "loss_rate carries no weight" 0
    (w [ { Plan.at = 0.0; event = Plan.Loss_rate 0.3 } ]);
  check_bool "loss_rate makes it stochastic" true
    (Plan.stochastic (Plan.make [ { Plan.at = 0.0; event = Plan.Loss_rate 0.3 } ]));
  check_bool "loss_rate 0 does not" false
    (Plan.stochastic (Plan.make [ { Plan.at = 0.0; event = Plan.Loss_rate 0.0 } ]))

(* ---------- Exec: plans drive a live flood via Env.prepare ---------- *)

let flood_under plan =
  let g = petersen () in
  let env = Env.(default |> with_seed 7 |> with_prepare (Exec.prepare_hook plan)) in
  Flood.Flooding.run_csr_env ~env ~csr:(Csr.of_graph g) ~source:0 ()

let test_exec_crash_blocks_delivery () =
  let plan = Plan.make [ { Plan.at = 0.0; event = Plan.Crash 6 } ] in
  let r = flood_under plan in
  check_bool "victim unreached" false r.Flood.Flooding.delivered.(6);
  check_bool "everyone else reached" true
    (List.for_all (fun v -> v = 6 || r.Flood.Flooding.delivered.(v)) (List.init 10 Fun.id))

let test_exec_recovery_catches_in_flight () =
  (* crash fires at t=0, recovery at t=0.5 < the unit-latency delivery
     at t=1: the in-flight copies land on a live node again *)
  let plan =
    Plan.make
      [ { Plan.at = 0.0; event = Plan.Crash 6 }; { Plan.at = 0.5; event = Plan.Recover 6 } ]
  in
  let r = flood_under plan in
  check_bool "recovered node reached" true r.Flood.Flooding.delivered.(6);
  check_bool "covers all" true r.Flood.Flooding.covers_all_alive

let test_exec_partition_and_heal () =
  (* cut vertex 0 (the source) away at t=0: its first sends are already
     in flight (link state is checked at send time), so the flood still
     escapes — but nothing can flow back across the downed cut, and
     healing after the flood has died changes nothing *)
  let plan =
    Plan.make
      [
        { Plan.at = 2.5; event = Plan.Partition [ 0; 1 ] };
        { Plan.at = 50.0; event = Plan.Heal };
      ]
  in
  let r = flood_under plan in
  check_bool "late partition after radius-2 flood is harmless" true
    r.Flood.Flooding.covers_all_alive;
  let early = Plan.make [ { Plan.at = 0.0; event = Plan.Partition [ 7 ] } ] in
  let r = flood_under early in
  (* vertex 7 is two hops from source 0: every copy towards it is sent
     at t >= 1, after its incident links went down *)
  check_bool "early partition isolates a distant vertex" false
    r.Flood.Flooding.delivered.(7)

(* ---------- Audit: the empirical boundary on an LHG ---------- *)

let audit_fixture () =
  let b = Lhg_core.Build.kdiamond_exn ~n:22 ~k:3 in
  let csr = Csr.of_graph b.Lhg_core.Build.graph in
  let cut = Connectivity.min_vertex_cut csr in
  let source =
    let rec pick v = if List.mem v cut then pick (v + 1) else v in
    pick 0
  in
  (csr, cut, source)

let test_audit_boundary () =
  let csr, cut, source = audit_fixture () in
  check_int "kdiamond(22,3) has a 3-cut" 3 (List.length cut);
  let plans =
    Gen.sweep ~rng:(Graph_core.Prng.create ~seed:11) ~source ~max_faults:3
      (Gen.aim csr Gen.Min_vertex_cut)
  in
  let env = Env.(default |> with_seed 11) in
  let a = Audit.run ~env ~csr ~k:3 ~source ~plans in
  check_bool "boundary holds at <= k-1" true a.Audit.boundary_ok;
  check_bool "no violations" true (a.Audit.violations = []);
  (* the deterministic prefix plan at level 3 deploys the full min cut
     and must break the flood, witnessing tightness *)
  (match Audit.first_witness a with
  | None -> Alcotest.fail "expected a k-fault witness"
  | Some r ->
      check_int "witness at weight k" 3 r.Audit.weight;
      check_bool "incomplete" false r.Audit.complete;
      let w = Option.get r.Audit.witness in
      check_bool "witness crashes the min cut" true
        (w.Audit.crashed_nodes = List.sort compare cut);
      check_bool "someone obligated went unreached" true (w.Audit.unreached <> []));
  (* the matrix covers weights 0..3 in order and every <= 2 row is clean *)
  let weights = List.map (fun row -> row.Audit.faults) a.Audit.matrix in
  check_bool "matrix ascending from 0" true (weights = List.sort_uniq compare weights);
  List.iter
    (fun row ->
      if row.Audit.faults <= 2 then
        check_int
          (Printf.sprintf "row %d complete" row.Audit.faults)
          row.Audit.plans row.Audit.complete_plans)
    a.Audit.matrix

let test_audit_dynamic_plans () =
  let csr, _, source = audit_fixture () in
  let plans =
    Gen.sweep ~plans_per_level:4
      ~rng:(Graph_core.Prng.create ~seed:3)
      ~source ~max_faults:2 (Gen.aim csr Gen.Random_dynamic)
  in
  let env = Env.(default |> with_seed 3) in
  let a = Audit.run ~env ~csr ~k:3 ~source ~plans in
  (* flapping faults of weight <= k-1 still cannot break the flood *)
  check_bool "dynamic boundary holds" true a.Audit.boundary_ok

let test_audit_reproducible () =
  let csr, _, source = audit_fixture () in
  let plans =
    Gen.sweep ~rng:(Graph_core.Prng.create ~seed:5) ~source ~max_faults:3
      (Gen.aim csr Gen.High_degree)
  in
  let run () =
    let env = Env.(default |> with_seed 5) in
    (Audit.run ~env ~csr ~k:3 ~source ~plans).Audit.reports
  in
  check_bool "same seed, same reports" true (run () = run ())

let test_audit_rejects_invalid () =
  let csr, _, source = audit_fixture () in
  let env = Env.default in
  let bad = Plan.make [ { Plan.at = 0.0; event = Plan.Crash 99 } ] in
  Alcotest.check_raises "invalid plan named by index"
    (Invalid_argument "Audit.run: plan 1: crash: vertex 99 out of range [0,22)")
    (fun () -> ignore (Audit.run ~env ~csr ~k:3 ~source ~plans:[ Plan.empty; bad ]));
  Alcotest.check_raises "crashed source rejected"
    (Invalid_argument "Audit.run: source is statically crashed") (fun () ->
      ignore
        (Audit.run
           ~env:(Env.with_crashed [ 1 ] env)
           ~csr ~k:3 ~source:1 ~plans:[ Plan.empty ]))

let test_gen_adversaries () =
  let csr, _, source = audit_fixture () in
  List.iter
    (fun adv ->
      let plans =
        Gen.sweep ~plans_per_level:2
          ~rng:(Graph_core.Prng.create ~seed:1)
          ~source ~max_faults:2 (Gen.aim csr adv)
      in
      check_bool (Gen.to_string adv ^ " sweep non-empty") true (plans <> []);
      List.iter
        (fun p ->
          ignore (ok_or_fail (Gen.to_string adv ^ " plan valid") (Plan.validate csr p));
          check_bool (Gen.to_string adv ^ " never crashes the source") false
            (List.mem source (Plan.crash_victims p));
          check_bool (Gen.to_string adv ^ " within budget") true (Plan.weight csr p <= 2))
        plans;
      match Gen.of_string (Gen.to_string adv) with
      | Ok adv' -> check_bool "of_string/to_string round trip" true (adv' = adv)
      | Error e -> Alcotest.failf "of_string %s: %s" (Gen.to_string adv) e)
    Gen.all;
  ignore (err_of "unknown adversary" (Gen.of_string "gremlins"))

let suite =
  [
    Alcotest.test_case "plan make sorts" `Quick test_plan_make_sorts;
    Alcotest.test_case "plan text round trip" `Quick test_plan_round_trip;
    Alcotest.test_case "plan parse" `Quick test_plan_parse;
    Alcotest.test_case "plan parse errors" `Quick test_plan_parse_errors;
    Alcotest.test_case "plan validate" `Quick test_plan_validate;
    Alcotest.test_case "plan weight" `Quick test_plan_weight;
    Alcotest.test_case "exec crash blocks delivery" `Quick test_exec_crash_blocks_delivery;
    Alcotest.test_case "exec recovery catches in-flight" `Quick
      test_exec_recovery_catches_in_flight;
    Alcotest.test_case "exec partition and heal" `Quick test_exec_partition_and_heal;
    Alcotest.test_case "audit boundary on kdiamond" `Quick test_audit_boundary;
    Alcotest.test_case "audit dynamic plans" `Quick test_audit_dynamic_plans;
    Alcotest.test_case "audit reproducible" `Quick test_audit_reproducible;
    Alcotest.test_case "audit rejects invalid input" `Quick test_audit_rejects_invalid;
    Alcotest.test_case "generators" `Quick test_gen_adversaries;
  ]
