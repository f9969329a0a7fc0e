module Graph = Graph_core.Graph
module Connectivity = Graph_core.Connectivity
module Minimality = Graph_core.Minimality
module Paths = Graph_core.Paths
module Degree = Graph_core.Degree

type report = {
  n : int;
  k : int;
  node_connected : bool;
  link_connected : bool;
  link_minimal : bool option;
  diameter : int option;
  diameter_ok : bool;
  k_regular : bool;
}

let diameter_bound ~n ~k =
  if n <= 1 then 0
  else if k <= 2 then n
  else
    let logb = log (float_of_int n) /. log (float_of_int (k - 1)) in
    int_of_float (ceil (2.0 *. logb)) + 6

let verify ?(check_minimality = true) ?pool g ~k =
  let n = Graph.n g in
  (* One frozen snapshot serves all four property checks. Each is a
     parallel sweep when a pool is supplied, and each runs its own
     parallel section in turn (the pool is not reentrant). *)
  let csr = Graph_core.Csr.of_graph g in
  let node_connected = Connectivity.is_k_vertex_connected_csr ?pool csr ~k in
  let link_connected = Connectivity.is_k_edge_connected_csr ?pool csr ~k in
  let link_minimal =
    if check_minimality then Some (Minimality.is_link_minimal_csr ?pool csr ~k) else None
  in
  let diameter = Paths.diameter_csr ?pool csr in
  let diameter_ok =
    match diameter with Some d -> d <= diameter_bound ~n ~k | None -> false
  in
  let k_regular = n > 0 && Degree.is_k_regular g ~k in
  { n; k; node_connected; link_connected; link_minimal; diameter; diameter_ok; k_regular }

let verdict r =
  r.node_connected && r.link_connected
  && (match r.link_minimal with Some b -> b | None -> true)
  && r.diameter_ok

(* [verdict] without the report: the checks run in report order over one
   snapshot, each only when every earlier one held, and P4 is the bound
   cover rather than the exact diameter. *)
let is_lhg ?(check_minimality = true) ?pool g ~k =
  let csr = Graph_core.Csr.of_graph g in
  Connectivity.is_k_vertex_connected_csr ?pool csr ~k
  && Connectivity.is_k_edge_connected_csr ?pool csr ~k
  && ((not check_minimality) || Minimality.is_link_minimal_csr ?pool csr ~k)
  && Paths.diameter_at_most_csr csr ~bound:(diameter_bound ~n:(Graph.n g) ~k)

let quick ?pool g ~k = is_lhg ~check_minimality:false ?pool g ~k

let pp_report fmt r =
  let pp_bool_opt fmt = function
    | Some b -> Format.pp_print_bool fmt b
    | None -> Format.pp_print_string fmt "skipped"
  in
  Format.fprintf fmt
    "@[<v>n=%d k=%d@,P1 node-connectivity: %b@,P2 link-connectivity: %b@,P3 link-minimality: %a@,P4 diameter: %s (bound %d) ok=%b@,P5 k-regular: %b@]"
    r.n r.k r.node_connected r.link_connected pp_bool_opt r.link_minimal
    (match r.diameter with Some d -> string_of_int d | None -> "disconnected")
    (diameter_bound ~n:r.n ~k:r.k)
    r.diameter_ok r.k_regular

let check_realization (b : Build.t) =
  let g', layout' = Realize.realize b.Build.shape in
  layout'.Realize.copies = b.Build.layout.Realize.copies && Graph.equal g' b.Build.graph
