(* A living overlay: peers join one by one through the incremental
   proof-step operations while the system keeps broadcasting — the
   integration of the existence theory (joins possible at EVERY size),
   the O(k^2) maintenance cost, and the flooding guarantee.

   Run with: dune exec examples/live_overlay.exe *)

module Graph = Graph_core.Graph
module Incremental = Overlay.Incremental

let k = 4

let () =
  let overlay = Incremental.start ~k () in
  Printf.printf "bootstrapped LHG overlay with %d peers (k = %d)\n\n" (Incremental.n overlay) k;
  Printf.printf "%6s %18s %8s %8s | %8s %9s %10s\n" "n" "op" "+edges" "-edges" "regular"
    "flood-ok" "rounds";
  let epochs = [ 12; 20; 40; 80; 160; 320 ] in
  let next_epoch = ref epochs in
  let total_ops = ref 0 in
  while Incremental.n overlay < 320 do
    let r = Incremental.join overlay in
    incr total_ops;
    let n = Incremental.n overlay in
    match !next_epoch with
    | target :: rest when n = target ->
        next_epoch := rest;
        let g = Incremental.graph overlay in
        (* broadcast with k-1 random crashes at every epoch *)
        let rng = Graph_core.Prng.create ~seed:n in
        let crashed = Flood.Runner.random_crashes rng ~n ~count:(k - 1) ~avoid:0 in
        let f =
          Flood.Flooding.run_csr_env ~env:(Flood.Env.make ~crashed ~seed:n ())
            ~csr:(Graph_core.Csr.of_graph g) ~source:0 ()
        in
        Printf.printf "%6d %18s %8d %8d | %8b %9b %10d\n" n
          (Incremental.op_name r.Incremental.op)
          r.Incremental.edges_added r.Incremental.edges_removed
          (Graph_core.Degree.is_k_regular g ~k)
          f.Flood.Flooding.covers_all_alive f.Flood.Flooding.max_hops
    | _ -> ()
  done;
  let g = Incremental.graph overlay in
  Printf.printf
    "\nfinal: %d peers, %d edges; %d joins cost %d rewired edges total (%.1f per join)\n"
    (Graph.n g) (Graph.m g) !total_ops
    (Incremental.total_rewired overlay)
    (float_of_int (Incremental.total_rewired overlay) /. float_of_int !total_ops);
  Printf.printf "verifier: %s\n"
    (if Lhg_core.Verify.is_lhg ~check_minimality:false g ~k then
       "the grown overlay is a Logarithmic Harary Graph"
     else "NOT an LHG (bug!)");
  (* flooding latency stayed logarithmic throughout: compare ends *)
  let rounds csr = (Flood.Sync.flood_csr csr ~source:0).Flood.Sync.rounds in
  Printf.printf "canonical build at n=320 floods in %d rounds; the grown overlay in %d\n"
    (rounds (Lhg_core.Build.build_csr_exn Lhg_core.Build.Kdiamond ~n:320 ~k))
    (rounds (Graph_core.Csr.of_graph g))
