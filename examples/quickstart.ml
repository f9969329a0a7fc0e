(* Quickstart: build an LHG, verify the four defining properties, flood it.

   Run with: dune exec examples/quickstart.exe *)

let () =
  let n = 46 and k = 4 in

  (* 1. Build a Logarithmic Harary Graph for (n, k). K-DIAMOND succeeds
     for every n >= 2k and gives a k-regular graph whenever
     (n - 2k) mod (k-1) = 0. *)
  let lhg =
    match Lhg_core.Build.kdiamond ~n ~k with
    | Ok b -> b
    | Error e -> failwith (Lhg_core.Build.error_to_string e)
  in
  let g = lhg.Lhg_core.Build.graph in
  Printf.printf "built LHG(%d,%d): %d vertices, %d edges\n" n k (Graph_core.Graph.n g)
    (Graph_core.Graph.m g);

  (* 2. Verify P1-P4 independently with max-flow machinery. *)
  let report = Lhg_core.Verify.verify g ~k in
  Format.printf "%a@." Lhg_core.Verify.pp_report report;
  assert (Lhg_core.Verify.is_lhg g ~k);

  (* 3. Compare with the classic Harary graph H(k,n): same edge economy,
     but linear diameter. *)
  let h = Harary.make ~k ~n in
  let diam graph =
    match Graph_core.Paths.diameter graph with Some d -> d | None -> -1
  in
  Printf.printf "diameter: LHG = %d, classic Harary = %d\n" (diam g) (diam h);

  (* 4. Freeze the topology once (the simulators read the flat CSR
     snapshot), then flood it from node 0 and watch it reach everyone. *)
  let csr = Graph_core.Csr.of_graph g in
  let r = Flood.Flooding.run_csr_env ~env:Flood.Env.default ~csr ~source:0 () in
  Printf.printf "flooding: %d messages, %d rounds, covered everyone: %b\n"
    r.Flood.Flooding.messages_sent r.Flood.Flooding.max_hops r.Flood.Flooding.covers_all_alive;

  (* 5. Crash any k-1 = 3 nodes: delivery to all survivors is guaranteed. *)
  let r = Flood.Flooding.run_csr_env ~env:(Flood.Env.make ~crashed:[ 7; 21; 40 ] ()) ~csr ~source:0 () in
  Printf.printf "with 3 crashes: covered all survivors: %b\n" r.Flood.Flooding.covers_all_alive;

  (* 6. Export for graphviz, coloured by construction role (root copies,
     internal copies per tree, shared leaves, cliques). *)
  Lhg_core.Viz.write_file ~path:"lhg_quickstart.dot" lhg;
  print_endline "wrote lhg_quickstart.dot (render with: dot -Tsvg lhg_quickstart.dot)"
