(* B1: bechamel micro-benchmarks — construction and verification cost.
   One Test.make per operation; results printed as ns/run estimates.

   The bfs entries walk the flat-array CSR (Graph_core.Csr +
   Bfs.Workspace) at n ∈ {1k, 16k, 131k}; their fixtures are realised
   straight into CSR, so no 131k-node adjacency-set graph is built.
   LHG_BENCH_QUOTA_MS shrinks the per-test quota (CI smoke runs). *)

open Bechamel
open Toolkit
module Csr = Graph_core.Csr
module Bfs = Graph_core.Bfs

let graph_1k = lazy ((Lhg_core.Build.kdiamond_exn ~n:1026 ~k:4).Lhg_core.Build.graph)

let graph_256 = lazy ((Lhg_core.Build.kdiamond_exn ~n:258 ~k:4).Lhg_core.Build.graph)

let kdiamond_csr n = lazy (Lhg_core.Build.build_csr_exn Lhg_core.Build.Kdiamond ~n ~k:4)

let csr_256 = kdiamond_csr 258

let csr_1k = kdiamond_csr 1026

let csr_16k = kdiamond_csr 16386

let csr_131k = kdiamond_csr 131074

let workspace = Bfs.Workspace.create ()

let bfs name csr =
  Test.make ~name:("bfs csr " ^ name) (Staged.stage (fun () ->
      ignore (Bfs.csr_distances_into workspace (Lazy.force csr) ~src:0)))

let tests =
  Test.make_grouped ~name:"lhg" ~fmt:"%s %s"
    [
      Test.make ~name:"build ktree n=1024 k=4" (Staged.stage (fun () ->
          ignore (Lhg_core.Build.ktree_exn ~n:1024 ~k:4)));
      Test.make ~name:"build kdiamond n=1026 k=4" (Staged.stage (fun () ->
          ignore (Lhg_core.Build.kdiamond_exn ~n:1026 ~k:4)));
      Test.make ~name:"build harary n=1024 k=4" (Staged.stage (fun () ->
          ignore (Harary.make ~k:4 ~n:1024)));
      Test.make ~name:"csr of_graph n=1026" (Staged.stage (fun () ->
          ignore (Csr.of_graph (Lazy.force graph_1k))));
      bfs "n=1026" csr_1k;
      bfs "n=16386" csr_16k;
      bfs "n=131074" csr_131k;
      Test.make ~name:"sync flood csr n=1026" (Staged.stage (fun () ->
          ignore (Flood.Sync.flood_csr ~workspace (Lazy.force csr_1k) ~source:0)));
      Test.make ~name:"is_4_connected n=258" (Staged.stage (fun () ->
          ignore (Graph_core.Connectivity.is_k_vertex_connected (Lazy.force graph_256) ~k:4)));
      Test.make ~name:"event flood csr n=258" (Staged.stage (fun () ->
          ignore
            (Flood.Flooding.run_csr_env ~env:Flood.Env.default ~csr:(Lazy.force csr_256) ~source:0
               ())));
    ]

let quota_seconds =
  match Sys.getenv_opt "LHG_BENCH_QUOTA_MS" with
  | Some ms -> (try float_of_string ms /. 1000.0 with Failure _ -> 0.5)
  | None -> 0.5

let run () =
  print_endline "\n=== B1  micro-benchmarks (bechamel, monotonic clock) ===";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota_seconds) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols_result acc -> (name, ols_result) :: acc) results [] in
  List.iter
    (fun (name, ols_result) ->
      match Analyze.OLS.estimates ols_result with
      | Some (est :: _) ->
          let value, unit_ =
            if est > 1e9 then (est /. 1e9, "s")
            else if est > 1e6 then (est /. 1e6, "ms")
            else if est > 1e3 then (est /. 1e3, "us")
            else (est, "ns")
          in
          Printf.printf "%-38s %10.2f %s/run\n" name value unit_
      | Some [] | None -> Printf.printf "%-38s (no estimate)\n" name)
    (List.sort compare rows)
