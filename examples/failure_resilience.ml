(* Fault-tolerance profile of flooding on an LHG: sweep the number of
   crashed nodes from 0 past the design threshold k-1 and watch the
   delivery guarantee hold exactly up to it, then degrade gracefully —
   while a spanning tree falls apart immediately.

   Run with: dune exec examples/failure_resilience.exe *)

let n = 302
let k = 4
let trials = 40

let () =
  let lhg_graph = (Lhg_core.Build.kdiamond_exn ~n ~k).Lhg_core.Build.graph in
  let tree =
    let rng = Graph_core.Prng.create ~seed:5 in
    Graph_core.Csr.of_graph (Topo.Spanning_tree.random_spanning_tree rng lhg_graph)
  in
  let lhg = Graph_core.Csr.of_graph lhg_graph in
  Printf.printf "flooding resilience on LHG(%d,%d) vs spanning tree; %d trials per point\n\n" n k
    trials;
  Printf.printf "%8s | %12s %10s | %12s %10s\n" "crashes" "LHG cover%" "all-ok%" "tree cover%"
    "all-ok%";
  for crash_count = 0 to 2 * k do
    let a = Flood.Runner.flood_trials_env ~env:(Flood.Env.make ~seed:11 ()) ~csr:lhg ~source:0 ~crash_count ~trials () in
    let t = Flood.Runner.flood_trials_env ~env:(Flood.Env.make ~seed:11 ()) ~csr:tree ~source:0 ~crash_count ~trials () in
    Printf.printf "%8d | %11.2f%% %9.0f%% | %11.2f%% %9.0f%%%s\n" crash_count
      (100.0 *. a.Flood.Runner.mean_coverage)
      (100.0 *. a.Flood.Runner.all_covered_fraction)
      (100.0 *. t.Flood.Runner.mean_coverage)
      (100.0 *. t.Flood.Runner.all_covered_fraction)
      (if crash_count = k - 1 then "   <- design threshold k-1" else "")
  done;
  print_newline ();

  (* link failures: the same guarantee holds for k-1 failed links *)
  Printf.printf "%8s | %12s %10s\n" "links" "LHG cover%" "all-ok%";
  for link_failures = 0 to 2 * k do
    let a =
      Flood.Runner.flood_trials_env ~env:(Flood.Env.make ~seed:13 ()) ~link_failures ~csr:lhg ~source:0 ~crash_count:0 ~trials ()
    in
    Printf.printf "%8d | %11.2f%% %9.0f%%%s\n" link_failures
      (100.0 *. a.Flood.Runner.mean_coverage)
      (100.0 *. a.Flood.Runner.all_covered_fraction)
      (if link_failures = k - 1 then "   <- design threshold k-1" else "")
  done;
  Printf.printf
    "\nCoverage is exactly 100%% of survivors for every trial with <= %d failures\n\
     (Menger: k disjoint paths), and degrades only statistically beyond.\n"
    (k - 1)
