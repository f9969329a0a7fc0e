(* The degree rule settles every edge with an endpoint of degree ≤ k;
   the rest take one pair probe each. Probes only read the snapshot,
   so with [?pool] the probed edges fan out across domains, one probe
   workspace per domain, and [non_critical_edges] keeps edge order by
   writing verdicts into a slot per edge. *)

(* κ_G(u,v) ≥ k + 1 for an edge uv, i.e. κ ≥ k survives its removal *)
let spare pr ~k u v =
  List.compare_length_with (Connectivity.pair_paths pr ~k:(k + 1) u v) (k + 1) >= 0

let edge_is_critical g ~k u v =
  if not (Graph.has_edge g u v) then invalid_arg "Minimality.edge_is_critical: edge absent";
  Graph.degree g u <= k
  || Graph.degree g v <= k
  || not (spare (Connectivity.probe (Csr.of_graph g)) ~k u v)

(* The non-critical edges, in edge order; with [~first], stop once one
   is known (the result is then empty iff there are none). *)
let non_critical ?pool csr ~k ~first =
  let probed = ref [] in
  Csr.iter_edges csr (fun u v ->
      if Csr.degree csr u > k && Csr.degree csr v > k then probed := (u, v) :: !probed);
  let edges = Array.of_list (List.rev !probed) in
  let m = Array.length edges in
  let bad = Array.make m false in
  let found = Atomic.make false in
  let check pr i =
    if not (first && Atomic.get found) then begin
      let u, v = edges.(i) in
      if spare (Lazy.force pr) ~k u v then begin
        bad.(i) <- true;
        Atomic.set found true
      end
    end
  in
  (match pool with
  | Some p when Par.Pool.size p > 1 && m > 1 ->
      let probes = Array.init (Par.Pool.size p) (fun _ -> lazy (Connectivity.probe csr)) in
      Par.Pool.parallel_for ~chunk:1 p ~lo:0 ~hi:m (fun ~worker i -> check probes.(worker) i)
  | _ ->
      let pr = lazy (Connectivity.probe csr) in
      for i = 0 to m - 1 do
        check pr i
      done);
  List.filteri (fun i _ -> bad.(i)) (Array.to_list edges)

let non_critical_edges ?pool g ~k = non_critical ?pool (Csr.of_graph g) ~k ~first:false

let is_link_minimal_csr ?pool csr ~k = non_critical ?pool csr ~k ~first:true = []

let is_link_minimal ?pool g ~k = is_link_minimal_csr ?pool (Csr.of_graph g) ~k
