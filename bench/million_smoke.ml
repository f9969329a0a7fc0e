(* Million-node smoke: build a >=2^20-node kdiamond straight into
   off-heap CSR and async-flood it, asserting a wall-clock budget.

     dune exec bench/million_smoke.exe            # default n=1048578, budget 5 s
     LHG_SMOKE_NODES=262146 LHG_SMOKE_BUDGET_S=3 dune exec bench/million_smoke.exe
     LHG_SMOKE_KIND=ktree dune exec bench/million_smoke.exe

   Topology dispatch goes through Topo.Registry's uniform csr field,
   so any registered family with a direct CSR path can be smoked.

   Exits non-zero if the flood misses a node or the budget is blown —
   the CI guard for the calendar-queue + CSR-builder hot core. After
   the timed run, outside the budget, the same flood reruns on the
   binary-heap engine; the smoke also fails unless every delivery
   time, the message count and the hop radius are identical. *)

let getenv_int name default =
  match Sys.getenv_opt name with Some s -> int_of_string s | None -> default

let getenv_float name default =
  match Sys.getenv_opt name with Some s -> float_of_string s | None -> default

let () =
  let n = getenv_int "LHG_SMOKE_NODES" 1_048_578 in
  let k = getenv_int "LHG_SMOKE_K" 4 in
  let kind = Option.value (Sys.getenv_opt "LHG_SMOKE_KIND") ~default:"kdiamond" in
  let budget_s = getenv_float "LHG_SMOKE_BUDGET_S" 5.0 in
  let t0 = Unix.gettimeofday () in
  let csr =
    match Topo.Registry.build_csr_graph ~big:true ~kind ~n ~k ~seed:1 () with
    | Ok c -> c
    | Error e ->
        prerr_endline ("million_smoke: " ^ e);
        exit 1
  in
  let t1 = Unix.gettimeofday () in
  let result = Flood.Flooding.run_csr_env ~env:Flood.Env.default ~csr ~source:0 () in
  let t2 = Unix.gettimeofday () in
  let build_s = t1 -. t0 and flood_s = t2 -. t1 in
  Printf.printf "million_smoke: %s n=%d k=%d m=%d big=%b\n" kind (Graph_core.Csr.n csr) k
    (Graph_core.Csr.m csr)
    (Graph_core.Csr.is_bigarray csr);
  Printf.printf "  build_csr      %.3f s\n" build_s;
  Printf.printf "  async flood    %.3f s  (%d msgs, %d rounds, covered=%b)\n" flood_s
    result.Flood.Flooding.messages_sent result.Flood.Flooding.max_hops
    result.Flood.Flooding.covers_all_alive;
  Printf.printf "  total          %.3f s  (budget %.1f s)\n" (build_s +. flood_s) budget_s;
  if not result.Flood.Flooding.covers_all_alive then begin
    prerr_endline "million_smoke: FAIL flood did not reach every node";
    exit 1
  end;
  if build_s +. flood_s > budget_s then begin
    Printf.eprintf "million_smoke: FAIL %.3f s over the %.1f s budget\n" (build_s +. flood_s)
      budget_s;
    exit 1
  end;
  let t3 = Unix.gettimeofday () in
  let heap =
    Flood.Flooding.run_csr_env
      ~env:(Flood.Env.default |> Flood.Env.with_engine Netsim.Sim.Heap)
      ~csr ~source:0 ()
  in
  let identical =
    heap.Flood.Flooding.delivery_time = result.Flood.Flooding.delivery_time
    && heap.Flood.Flooding.messages_sent = result.Flood.Flooding.messages_sent
    && heap.Flood.Flooding.max_hops = result.Flood.Flooding.max_hops
  in
  Printf.printf "  heap engine    %.3f s  (identical=%b, not budgeted)\n"
    (Unix.gettimeofday () -. t3) identical;
  if not identical then begin
    prerr_endline "million_smoke: FAIL the heap engine flood differs from the calendar one";
    exit 1
  end
