(* Shared fixtures and Alcotest testables for the whole suite. *)

module Graph = Graph_core.Graph

let graph_testable = Alcotest.testable Graph.pp Graph.equal

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_int_opt = Alcotest.(check (option int))

(* A deterministic RNG per test site; vary [salt] to decorrelate. *)
let rng ?(salt = 0) () = Graph_core.Prng.create ~seed:(0xBEEF + salt)

(* Sorted edge list for structural comparisons. *)
let sorted_edges g = List.sort compare (Graph.edges g)

(* The 4-cycle with a chord: a tiny non-regular 2-connected fixture. *)
let house () = Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0); (0, 2) ]

(* Two triangles joined by a single bridge edge 2-3. *)
let barbell () =
  Graph.of_edges ~n:6 [ (0, 1); (1, 2); (0, 2); (3, 4); (4, 5); (3, 5); (2, 3) ]

(* Petersen graph: 3-regular, 3-connected, girth 5 — a classic stress
   fixture for connectivity code. *)
let petersen () =
  Graph.of_edges ~n:10
    [
      (0, 1); (1, 2); (2, 3); (3, 4); (4, 0);
      (5, 7); (7, 9); (9, 6); (6, 8); (8, 5);
      (0, 5); (1, 6); (2, 7); (3, 8); (4, 9);
    ]

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Every Topo.Registry family admissible at (n, k), as (name, graph);
   the hypercube is taken at its own size 2^k. *)
let registry_graphs ~n ~k ~seed =
  List.filter_map
    (fun (e : Topo.Registry.entry) ->
      let n = if e.Topo.Registry.name = "hypercube" then 1 lsl k else n in
      match e.Topo.Registry.build ~n ~k ~seed with
      | Ok g -> Some (e.Topo.Registry.name, g)
      | Error _ -> None)
    Topo.Registry.all

(* A copy of [g] with [count] uniformly drawn edges deleted, one at a
   time. *)
let without_random_edges rng g count =
  let g = Graph.copy g in
  for _ = 1 to count do
    let edges = Array.of_list (Graph.edges g) in
    if Array.length edges > 0 then begin
      let u, v = edges.(Graph_core.Prng.int rng (Array.length edges)) in
      Graph.remove_edge g u v
    end
  done;
  g

(* {2 Reference max flow}

   Edmonds–Karp over explicit arc lists, a full BFS per augmentation —
   nothing shared with the connectivity engine's stamped prefix-order
   probes. The exact connectivity values, minimum cuts, link
   minimality and witnesses are checked against it. *)

(* Arc 2i runs to [dst.(2i)] with capacity [cap.(2i)]; arc 2i+1 is its
   reverse, of capacity 0. [out.(u)] lists the arcs leaving u. *)
type network = { out : int list array; dst : int array; cap : int array }

let network ~nodes arcs =
  let out = Array.make nodes [] in
  let dst = Array.make (2 * List.length arcs) 0 and cap = Array.make (2 * List.length arcs) 0 in
  List.iteri
    (fun i (u, v, c) ->
      dst.(2 * i) <- v;
      cap.(2 * i) <- c;
      dst.((2 * i) + 1) <- u;
      out.(u) <- (2 * i) :: out.(u);
      out.(v) <- ((2 * i) + 1) :: out.(v))
    arcs;
  { out; dst; cap }

(* The maximum s→t flow, or [limit] once reached, and the residual
   capacity of every arc it leaves. *)
let reference_max_flow ?(limit = max_int) net ~s ~t =
  let nv = Array.length net.out in
  let res = Array.copy net.cap in
  let flow = ref 0 and augmenting = ref true in
  while !augmenting && !flow < limit do
    let via = Array.make nv (-1) in
    let seen = Array.make nv false in
    seen.(s) <- true;
    let queue = Queue.create () in
    Queue.add s queue;
    while not (Queue.is_empty queue || seen.(t)) do
      let u = Queue.pop queue in
      List.iter
        (fun a ->
          let v = net.dst.(a) in
          if (not seen.(v)) && res.(a) > 0 then begin
            seen.(v) <- true;
            via.(v) <- a;
            Queue.add v queue
          end)
        net.out.(u)
    done;
    if not seen.(t) then augmenting := false
    else begin
      let rec bottleneck v acc =
        if v = s then acc else bottleneck net.dst.(via.(v) lxor 1) (min acc res.(via.(v)))
      in
      let d = min (bottleneck t max_int) (limit - !flow) in
      let rec push v =
        if v <> s then begin
          let a = via.(v) in
          res.(a) <- res.(a) - d;
          res.(a lxor 1) <- res.(a lxor 1) + d;
          push net.dst.(a lxor 1)
        end
      in
      push t;
      flow := !flow + d
    end
  done;
  (!flow, res)

let reference_flow ?limit net ~s ~t = fst (reference_max_flow ?limit net ~s ~t)

(* Unit arcs both ways along every edge: λ(s,t) is the s→t flow. *)
let edge_network g =
  network ~nodes:(Graph.n g) (List.concat_map (fun (u, v) -> [ (u, v, 1); (v, u, 1) ]) (Graph.edges g))

(* The vertex-split network: in-node 2v, out-node 2v+1, a unit arc
   between them, and an uncapacitated arc out-side to in-side along
   every edge but [skip]. *)
let split_network ?(skip = (-1, -1)) g =
  let n = Graph.n g in
  network ~nodes:(2 * n)
    (List.init n (fun v -> (2 * v, (2 * v) + 1, 1))
    @ List.concat_map
        (fun (u, v) -> if (u, v) = skip then [] else [ ((2 * u) + 1, 2 * v, n); ((2 * v) + 1, 2 * u, n) ])
        (Graph.edges g))

let reference_edge_connectivity_st g ~s ~t = reference_flow (edge_network g) ~s ~t

(* κ(s,t) from s's out-side to t's in-side; a direct s–t edge counts
   once and is left out of the flow. *)
let reference_vertex_connectivity g ~s ~t =
  let direct = Graph.has_edge g s t in
  let net = split_network ~skip:(if direct then (min s t, max s t) else (-1, -1)) g in
  (if direct then 1 else 0) + reference_flow net ~s:((2 * s) + 1) ~t:(2 * t)

let min_degree_vertex g =
  List.fold_left
    (fun best v -> if Graph.degree g v < Graph.degree g best then v else best)
    0
    (List.init (Graph.n g) Fun.id)

(* λ(G) = min over t ≠ 0 of λ(0, t): every edge cut separates 0 from
   some vertex. 0 below two vertices. *)
let reference_lambda g =
  let n = Graph.n g in
  if n <= 1 then 0
  else begin
    let net = edge_network g in
    let best = ref (Graph.degree g (min_degree_vertex g)) in
    for t = 1 to n - 1 do
      if !best > 0 then best := min !best (reference_flow ~limit:!best net ~s:0 ~t)
    done;
    !best
  end

(* κ(G) by Esfahanian–Hakimi: for v of minimum degree, the min of κ(v,t)
   over t ∉ N[v] and of κ(x,y) over non-adjacent x, y ∈ N(v). A
   minimum cut C either misses v, and separates it from some t ∉ N[v],
   or contains it, and then v has neighbours x, y in two components of
   G − C (else C − v would still be a cut). n − 1 for complete graphs,
   0 below two vertices. *)
let reference_kappa g =
  let n = Graph.n g in
  if n <= 1 then 0
  else if Graph.m g = n * (n - 1) / 2 then n - 1
  else begin
    let net = split_network g in
    let v = min_degree_vertex g in
    let best = ref (Graph.degree g v) in
    let probe s t =
      if !best > 0 && s <> t && not (Graph.has_edge g s t) then
        best := min !best (reference_flow ~limit:!best net ~s:((2 * s) + 1) ~t:(2 * t))
    in
    for t = 0 to n - 1 do
      probe v t
    done;
    List.iter (fun x -> List.iter (fun y -> if x < y then probe x y) (Graph.neighbors g v)) (Graph.neighbors g v);
    !best
  end

(* Does removing [cut] (vertices, or edges) disconnect [g]? *)
let vertices_disconnect g cut =
  let alive = Array.make (Graph.n g) true in
  List.iter (fun v -> alive.(v) <- false) cut;
  not (Graph_core.Components.is_connected ~alive g)

let edges_disconnect g cut =
  let g' = Graph.copy g in
  List.iter (fun (u, v) -> Graph.remove_edge g' u v) cut;
  not (Graph_core.Components.is_connected g')

(* Is every consecutive pair of [p] an edge of [g]? *)
let is_path g p =
  let rec go = function u :: (v :: _ as rest) -> Graph.has_edge g u v && go rest | _ -> true in
  go p

(* No vertex inside one path appears again, in it or in another path,
   nor as any path's first or last vertex. *)
let internally_disjoint paths =
  let inner = List.concat_map (fun p -> List.filteri (fun i _ -> i > 0 && i < List.length p - 1) p) paths in
  let ends = List.concat_map (fun p -> [ List.hd p; List.nth p (List.length p - 1) ]) paths in
  List.length (List.sort_uniq compare inner) = List.length inner
  && not (List.exists (fun v -> List.mem v ends) inner)

(* A copy of [g] with [count] edges added, each between a uniformly
   drawn pair of distinct non-adjacent vertices (when there is one). *)
let with_planted_edges rng g count =
  let g = Graph.copy g in
  let n = Graph.n g in
  for _ = 1 to count do
    let open_pairs = ref [] in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if not (Graph.has_edge g u v) then open_pairs := (u, v) :: !open_pairs
      done
    done;
    let pairs = Array.of_list !open_pairs in
    if Array.length pairs > 0 then begin
      let u, v = pairs.(Graph_core.Prng.int rng (Array.length pairs)) in
      Graph.add_edge g u v
    end
  done;
  g

(* {2 Reference diameter}

   One plain queue BFS per vertex over the adjacency sets, sharing
   nothing with the CSR sweeps or the eccentricity-bound cover. *)

(* ecc(s), or None when some vertex is unreachable from s. *)
let reference_eccentricity g s =
  let dist = Array.make (Graph.n g) (-1) in
  let queue = Queue.create () in
  dist.(s) <- 0;
  Queue.add s queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue
        end)
      (Graph.neighbors g u)
  done;
  if Array.exists (fun d -> d < 0) dist then None else Some (Array.fold_left max 0 dist)

(* The exact diameter; None when [g] is empty or disconnected. *)
let reference_diameter g =
  let rec go v acc =
    if v = Graph.n g then acc
    else
      match (acc, reference_eccentricity g v) with
      | Some d, Some e -> go (v + 1) (Some (max d e))
      | _ -> None
  in
  if Graph.n g = 0 then None else go 0 (Some 0)

(* A copy of [g] with a path of [length] new vertices hanging off [at]:
   at – n – n+1 – … – n+length−1. *)
let with_pendant_path g ~at ~length =
  let n = Graph.n g in
  Graph.of_edges ~n:(n + length)
    (Graph.edges g @ List.init length (fun i -> ((if i = 0 then at else n + i - 1), n + i)))
