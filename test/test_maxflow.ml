(* The reference max flow of helpers.ml on known networks. Every exact
   connectivity value, minimum cut and witness in the suite is checked
   against it, so it is checked first. *)
open Helpers

let of_arcs ~nodes arcs = network ~nodes arcs

(* The classic 6-node example: max flow 23. *)
let classic () =
  of_arcs ~nodes:6
    [
      (0, 1, 16); (0, 2, 13); (1, 2, 10); (2, 1, 4); (1, 3, 12);
      (3, 2, 9); (2, 4, 14); (4, 3, 7); (3, 5, 20); (4, 5, 4);
    ]

let test_classic () = check_int "CLRS flow" 23 (reference_flow (classic ()) ~s:0 ~t:5)

let test_single_arc () =
  check_int "single arc" 7 (reference_flow (of_arcs ~nodes:2 [ (0, 1, 7) ]) ~s:0 ~t:1)

let test_no_path () = check_int "no path" 0 (reference_flow (of_arcs ~nodes:3 [ (0, 1, 5) ]) ~s:0 ~t:2)

let test_bottleneck () =
  let net = of_arcs ~nodes:4 [ (0, 1, 100); (1, 2, 1); (2, 3, 100) ] in
  check_int "bottleneck" 1 (reference_flow net ~s:0 ~t:3)

let test_parallel_paths () =
  let net = of_arcs ~nodes:6 (List.concat_map (fun mid -> [ (0, mid, 1); (mid, 5, 1) ]) [ 1; 2; 3; 4 ]) in
  check_int "four disjoint paths" 4 (reference_flow net ~s:0 ~t:5)

let test_bidir_edge () =
  let net = of_arcs ~nodes:2 [ (0, 1, 3); (1, 0, 3) ] in
  check_int "forward" 3 (reference_flow net ~s:0 ~t:1);
  check_int "backward" 3 (reference_flow net ~s:1 ~t:0)

(* The nodes the residual network still reaches from [s]. *)
let residual_side net res ~s =
  let seen = Array.make (Array.length net.out) false in
  let rec go u =
    if not seen.(u) then begin
      seen.(u) <- true;
      List.iter (fun a -> if res.(a) > 0 then go net.dst.(a)) net.out.(u)
    end
  in
  go s;
  seen

let test_min_cut_side () =
  let net = of_arcs ~nodes:4 [ (0, 1, 10); (1, 2, 1); (2, 3, 10) ] in
  let _, res = reference_max_flow net ~s:0 ~t:3 in
  Alcotest.(check (array bool)) "cut after bottleneck" [| true; true; false; false |]
    (residual_side net res ~s:0)

let test_flow_conservation () =
  let net = classic () in
  let value, res = reference_max_flow net ~s:0 ~t:5 in
  let balance = Array.make 6 0 in
  Array.iteri
    (fun a c ->
      if a land 1 = 0 then begin
        let f = c - res.(a) in
        balance.(net.dst.(a lxor 1)) <- balance.(net.dst.(a lxor 1)) - f;
        balance.(net.dst.(a)) <- balance.(net.dst.(a)) + f
      end)
    net.cap;
  check_int "source emits flow" (-value) balance.(0);
  check_int "sink absorbs flow" value balance.(5);
  for v = 1 to 4 do
    check_int "interior balanced" 0 balance.(v)
  done

let prop_flow_bounded_by_cut =
  qcheck "flow <= any star cut" QCheck2.Gen.(int_bound 10_000) (fun seed ->
      let rngv = Graph_core.Prng.create ~seed in
      let n = 6 in
      let out_cap = Array.make n 0 and in_cap = Array.make n 0 in
      let arcs = ref [] in
      for _ = 1 to 12 do
        let s = Graph_core.Prng.int rngv n and t = Graph_core.Prng.int rngv n in
        if s <> t then begin
          let cap = Graph_core.Prng.int rngv 10 in
          arcs := (s, t, cap) :: !arcs;
          out_cap.(s) <- out_cap.(s) + cap;
          in_cap.(t) <- in_cap.(t) + cap
        end
      done;
      let f = reference_flow (of_arcs ~nodes:n !arcs) ~s:0 ~t:(n - 1) in
      f <= out_cap.(0) && f <= in_cap.(n - 1))

(* On every Registry family, a random pair: the engine's pair probe
   finds as many internally disjoint paths as the reference κ(s,t),
   each over edges of the graph, and never more than λ(s,t). *)
let prop_registry_flows =
  qcheck ~count:25 "registry flows = exhaustive reference; Menger families disjoint"
    QCheck2.Gen.(triple (int_range 8 30) (int_range 2 4) (int_bound 10_000))
    (fun (n, k, seed) ->
      List.for_all
        (fun (_, g) ->
          let rngv = Graph_core.Prng.create ~seed in
          let nv = Graph.n g in
          let s = Graph_core.Prng.int rngv nv in
          let t = (s + 1 + Graph_core.Prng.int rngv (nv - 1)) mod nv in
          let kappa = reference_vertex_connectivity g ~s ~t in
          let pr = Graph_core.Connectivity.probe (Graph_core.Csr.of_graph g) in
          let paths = Graph_core.Connectivity.pair_paths pr ~k:nv s t in
          List.length paths = kappa
          && kappa <= reference_edge_connectivity_st g ~s ~t
          && internally_disjoint paths
          && List.for_all (fun p -> List.hd p = s && List.nth p (List.length p - 1) = t && is_path g p) paths)
        (registry_graphs ~n ~k ~seed))

let suite =
  [
    Alcotest.test_case "classic network" `Quick test_classic;
    Alcotest.test_case "single arc" `Quick test_single_arc;
    Alcotest.test_case "no path" `Quick test_no_path;
    Alcotest.test_case "bottleneck" `Quick test_bottleneck;
    Alcotest.test_case "parallel paths" `Quick test_parallel_paths;
    Alcotest.test_case "bidirectional edge" `Quick test_bidir_edge;
    Alcotest.test_case "min cut side" `Quick test_min_cut_side;
    Alcotest.test_case "flow conservation" `Quick test_flow_conservation;
    prop_flow_bounded_by_cut;
    prop_registry_flows;
  ]
