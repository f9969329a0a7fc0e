(* Parallel-vs-sequential equivalence: the [?pool] entry points must
   return exactly the sequential answer at 1, 2 and 4 domains — the
   whole point of the deterministic chunking / seed-splitting design.
   One pool per domain count is shared across all properties (pools are
   cheap to keep, expensive to churn per qcheck case). *)

open Helpers
module Graph = Graph_core.Graph
module Csr = Graph_core.Csr
module Paths = Graph_core.Paths
module Connectivity = Graph_core.Connectivity
module Minimality = Graph_core.Minimality
module Generators = Graph_core.Generators
module Reliability = Flood.Reliability
module Pool = Par.Pool

(* Lazy shared pools: spawned once for the whole suite, joined at exit
   via Pool.default's at_exit only for the default pool — these two are
   deliberately leaked to process exit (worker domains idle in
   Condition.wait and the runtime joins nothing until exit; the
   alternative, per-test spawn, dominates suite wall time). *)
let pool2 = lazy (Pool.create ~domains:2)

let pool4 = lazy (Pool.create ~domains:4)

let pools () = [ (1, None); (2, Some (Lazy.force pool2)); (4, Some (Lazy.force pool4)) ]

let random_graph ?(n = 24) seed = Generators.gnp (Graph_core.Prng.create ~seed) ~n ~p:0.18

let prop_diameter_equiv =
  qcheck ~count:40 "diameter_csr equal at 1/2/4 domains"
    QCheck2.Gen.(int_bound 10_000)
    (fun seed ->
      let g = random_graph seed in
      let csr = Csr.of_graph g in
      let expected = Paths.diameter_csr csr in
      List.for_all
        (fun (_, pool) ->
          Paths.diameter_csr ?pool csr = expected
          && Paths.eccentricities_csr ?pool csr = Paths.eccentricities_csr csr)
        (pools ()))

let prop_diameter_equiv_masked =
  qcheck ~count:25 "diameter_csr with alive mask equal at 1/2/4 domains"
    QCheck2.Gen.(pair (int_bound 10_000) (int_bound 1_000))
    (fun (seed, mask_seed) ->
      let g = random_graph seed in
      let n = Graph.n g in
      let rng = Graph_core.Prng.create ~seed:mask_seed in
      let alive = Array.init n (fun _ -> Graph_core.Prng.float rng 1.0 > 0.2) in
      (* keep at least one vertex alive so the sweep has sources *)
      if n > 0 then alive.(0) <- true;
      let csr = Csr.of_graph g in
      let expected = Paths.diameter_csr ~alive csr in
      List.for_all (fun (_, pool) -> Paths.diameter_csr ?pool ~alive csr = expected) (pools ()))

let prop_link_minimal_equiv =
  qcheck ~count:20 "is_link_minimal / non_critical_edges equal at 1/2/4 domains"
    QCheck2.Gen.(pair (int_range 3 4) (int_bound 10_000))
    (fun (k, seed) ->
      let n = 18 + (seed mod 7) in
      let g =
        match Lhg_core.Build.ktree ~n ~k with
        | Ok b -> b.Lhg_core.Build.graph
        | Error _ -> random_graph seed
      in
      let expected_min = Minimality.is_link_minimal g ~k in
      let expected_bad = Minimality.non_critical_edges g ~k in
      List.for_all
        (fun (_, pool) ->
          Minimality.is_link_minimal ?pool g ~k = expected_min
          && Minimality.non_critical_edges ?pool g ~k = expected_bad)
        (pools ()))

let prop_k_connectivity_equiv =
  qcheck ~count:25 "is_k_{vertex,edge}_connected_csr equal at 1/2/4 domains"
    QCheck2.Gen.(pair (int_range 1 5) (int_bound 10_000))
    (fun (k, seed) ->
      let g = random_graph seed in
      let csr = Csr.of_graph g in
      let ev = Connectivity.is_k_vertex_connected_csr csr ~k in
      let ee = Connectivity.is_k_edge_connected_csr csr ~k in
      List.for_all
        (fun (_, pool) ->
          Connectivity.is_k_vertex_connected_csr ?pool csr ~k = ev
          && Connectivity.is_k_edge_connected_csr ?pool csr ~k = ee)
        (pools ()))

let prop_k_connectivity_equiv_structured =
  (* dense/complete-ish fixtures hit the min-degree short-circuit and
     probes settled by direct edges alone *)
  qcheck ~count:15 "decision equivalence on structured graphs"
    QCheck2.Gen.(int_range 2 6)
    (fun k ->
      List.for_all
        (fun g ->
          let csr = Csr.of_graph g in
          let ev = Connectivity.is_k_vertex_connected_csr csr ~k in
          let ee = Connectivity.is_k_edge_connected_csr csr ~k in
          List.for_all
            (fun (_, pool) ->
              Connectivity.is_k_vertex_connected_csr ?pool csr ~k = ev
              && Connectivity.is_k_edge_connected_csr ?pool csr ~k = ee)
            (pools ()))
        [ Generators.complete 8; Generators.cycle 9; petersen (); Generators.star 7 ])

let prop_k_connectivity_equiv_damaged =
  (* LHG constructions with 0-3 random edges deleted: both passing and
     failing probes, spread over many domains' workspaces *)
  qcheck ~count:10 "decision equivalence on damaged LHGs"
    QCheck2.Gen.(pair (int_range 3 5) (int_bound 10_000))
    (fun (degree, seed) ->
      let rng = Graph_core.Prng.create ~seed in
      let g = (Lhg_core.Build.kdiamond_exn ~n:(90 + (seed mod 40)) ~k:degree).Lhg_core.Build.graph in
      let csr = Csr.of_graph (without_random_edges rng g (Graph_core.Prng.int rng 4)) in
      List.for_all
        (fun k ->
          let ev = Connectivity.is_k_vertex_connected_csr csr ~k in
          let ee = Connectivity.is_k_edge_connected_csr csr ~k in
          List.for_all
            (fun (_, pool) ->
              Connectivity.is_k_vertex_connected_csr ?pool csr ~k = ev
              && Connectivity.is_k_edge_connected_csr ?pool csr ~k = ee)
            (pools ()))
        [ degree - 1; degree ])

let prop_flood_delivery_equiv =
  qcheck ~count:8 "flood_delivery bit-identical at 1/2/4 domains"
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 600 1400))
    (fun (seed, trials) ->
      (* > shard_size trials so several shards exist and get scheduled
         differently at different domain counts *)
      let b = Lhg_core.Build.kdiamond_exn ~n:30 ~k:3 in
      let g = b.Lhg_core.Build.graph in
      let est pool =
        Reliability.flood_delivery ?pool ~csr:(Csr.of_graph g) ~source:0 ~node_failure_prob:0.08 ~trials
          ~seed ()
      in
      let expected = est None in
      List.for_all
        (fun (_, pool) ->
          let e = est pool in
          e.Reliability.probability = expected.Reliability.probability
          && e.Reliability.lo = expected.Reliability.lo
          && e.Reliability.hi = expected.Reliability.hi
          && e.Reliability.trials = expected.Reliability.trials)
        (pools ()))

let prop_chaos_audit_equiv =
  qcheck ~count:6 "Chaos.Audit bit-identical at 1/2/4 domains"
    QCheck2.Gen.(int_bound 10_000)
    (fun seed ->
      let b = Lhg_core.Build.kdiamond_exn ~n:22 ~k:3 in
      let csr = Csr.of_graph b.Lhg_core.Build.graph in
      (* source outside the min vertex cut so adversarial plans can
         actually separate it from somebody *)
      let cut = Connectivity.min_vertex_cut csr in
      let source =
        let rec pick v = if List.mem v cut then pick (v + 1) else v in
        pick 0
      in
      let plans =
        Chaos.Gen.sweep ~plans_per_level:2
          ~rng:(Graph_core.Prng.create ~seed)
          ~source ~max_faults:3 (Chaos.Gen.aim csr Chaos.Gen.Min_vertex_cut)
      in
      let fingerprint (a : Chaos.Audit.t) =
        ( a.Chaos.Audit.boundary_ok,
          a.Chaos.Audit.matrix,
          List.map
            (fun (r : Chaos.Audit.plan_report) ->
              (r.index, r.weight, r.complete, r.delivered, r.completion_time, r.messages, r.witness))
            a.Chaos.Audit.reports )
      in
      let audit pool =
        let env = Flood.Env.(default |> with_seed seed |> with_pool pool) in
        Chaos.Audit.run ~env ~csr ~k:3 ~source ~plans
      in
      let expected = fingerprint (audit None) in
      List.for_all (fun (_, pool) -> fingerprint (audit pool) = expected) (pools ()))

let test_verify_equiv () =
  let b = Lhg_core.Build.kdiamond_exn ~n:34 ~k:4 in
  let g = b.Lhg_core.Build.graph in
  let expected = Lhg_core.Verify.verify g ~k:4 in
  List.iter
    (fun (d, pool) ->
      let r = Lhg_core.Verify.verify ?pool g ~k:4 in
      check_bool (Printf.sprintf "report equal at %d domains" d) true (r = expected))
    (pools ())

let test_default_pool_usable_in_verify () =
  (* under LHG_DOMAINS=n this runs the whole verifier on the shared
     n-domain pool — the CI multicore job's main assertion *)
  let b = Lhg_core.Build.ktree_exn ~n:26 ~k:3 in
  let g = b.Lhg_core.Build.graph in
  let pool = Pool.default () in
  check_bool "is_lhg on default pool" true (Lhg_core.Verify.is_lhg ~pool g ~k:3);
  check_bool "matches sequential" true (Lhg_core.Verify.is_lhg g ~k:3)

(* The decisions equal the report's verdict, with and without P3, on
   every registry family at a grid of (n, k): as built, with one edge
   removed, and with a pendant path. *)
let test_decisions_equal_verdict () =
  let module Verify = Lhg_core.Verify in
  List.iter
    (fun (n, k) ->
      List.iter
        (fun (name, g) ->
          let rng = rng ~salt:(n + k) () in
          List.iter
            (fun (damage, g) ->
              let full = Verify.verdict (Verify.verify g ~k) in
              let fast = Verify.verdict (Verify.verify ~check_minimality:false g ~k) in
              List.iter
                (fun (d, pool) ->
                  let case what = Printf.sprintf "%s (%d,%d) %s: %s at %d domains" name n k damage what d in
                  check_bool (case "is_lhg") full (Verify.is_lhg ?pool g ~k);
                  check_bool (case "is_lhg, no P3") fast (Verify.is_lhg ~check_minimality:false ?pool g ~k);
                  check_bool (case "quick") fast (Verify.quick ?pool g ~k))
                (pools ()))
            [
              ("intact", g);
              ("one edge removed", without_random_edges rng g 1);
              ("pendant path", with_pendant_path g ~at:(Graph_core.Prng.int rng (Graph.n g)) ~length:3);
            ])
        (registry_graphs ~n ~k ~seed:n))
    [ (46, 4); (98, 3); (64, 5); (130, 4) ]

let suite =
  [
    prop_diameter_equiv;
    prop_diameter_equiv_masked;
    prop_link_minimal_equiv;
    prop_k_connectivity_equiv;
    prop_k_connectivity_equiv_structured;
    prop_k_connectivity_equiv_damaged;
    prop_flood_delivery_equiv;
    prop_chaos_audit_equiv;
    Alcotest.test_case "verify report equal" `Quick test_verify_equiv;
    Alcotest.test_case "verify on default pool" `Quick test_default_pool_usable_in_verify;
    Alcotest.test_case "decisions = verdict of the report" `Quick test_decisions_equal_verdict;
  ]
