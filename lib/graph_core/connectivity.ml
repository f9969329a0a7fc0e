(* All flow-network construction and the global-connectivity search
   loops run over a frozen CSR snapshot: the builders know the exact arc
   count up front (zero growth copies) and neighbour scans are flat
   array reads. The [Graph.t] entry points snapshot once and delegate. *)

let edge_flow_network_csr csr =
  let net =
    Maxflow.Net.create_sized ~n:(max 1 (Csr.n csr)) ~arc_capacity:(4 * Csr.m csr)
  in
  Csr.iter_edges csr (fun u v -> Maxflow.Net.add_edge_bidir net u v ~cap:1);
  net

let edge_flow_network g = edge_flow_network_csr (Csr.of_graph g)

let vertex_split_network_csr csr =
  let nv = Csr.n csr in
  let v_in v = 2 * v and v_out v = (2 * v) + 1 in
  let net =
    Maxflow.Net.create_sized ~n:(max 1 (2 * nv)) ~arc_capacity:((2 * nv) + (4 * Csr.m csr))
  in
  for v = 0 to nv - 1 do
    Maxflow.Net.add_arc net ~src:(v_in v) ~dst:(v_out v) ~cap:1
  done;
  (* An undirected edge {u,v} lets flow cross in either direction between
     the out-side of one endpoint and the in-side of the other. Edge arcs
     carry effectively infinite capacity: flow is already bounded by the
     unit interior arcs, and saturating only those guarantees minimum
     cuts consist of interior arcs — i.e. of vertices. *)
  let big = max 1 nv in
  Csr.iter_edges csr (fun u v ->
      Maxflow.Net.add_arc net ~src:(v_out u) ~dst:(v_in v) ~cap:big;
      Maxflow.Net.add_arc net ~src:(v_out v) ~dst:(v_in u) ~cap:big);
  (net, v_in, v_out)

let vertex_split_network g = vertex_split_network_csr (Csr.of_graph g)

let check_pair g s t name =
  let nv = Graph.n g in
  if s < 0 || s >= nv || t < 0 || t >= nv then invalid_arg (name ^ ": vertex out of range");
  if s = t then invalid_arg (name ^ ": s = t")

let local_edge_connectivity ?limit g ~s ~t =
  check_pair g s t "Connectivity.local_edge_connectivity";
  let net = edge_flow_network g in
  Maxflow.max_flow ?limit net ~s ~t

let local_vertex_connectivity ?limit g ~s ~t =
  check_pair g s t "Connectivity.local_vertex_connectivity";
  if Graph.has_edge g s t then begin
    let g' = Graph.without_edge g s t in
    let net, v_in, v_out = vertex_split_network g' in
    let limit' = Option.map (fun l -> max 0 (l - 1)) limit in
    1 + Maxflow.max_flow ?limit:limit' net ~s:(v_out s) ~t:(v_in t)
  end
  else begin
    let net, v_in, v_out = vertex_split_network g in
    Maxflow.max_flow ?limit net ~s:(v_out s) ~t:(v_in t)
  end

let min_degree_vertex csr =
  let nv = Csr.n csr in
  let best = ref 0 in
  for v = 1 to nv - 1 do
    if Csr.degree csr v < Csr.degree csr !best then best := v
  done;
  !best

let min_degree csr = Csr.degree csr (min_degree_vertex csr)

(* λ(G) = min over t ≠ v₀ of λ(v₀, t), starting from λ(G) ≤ δ(G) and
   capping each flow at the best value so far; one network serves all t. *)
let edge_connectivity_csr csr =
  let nv = Csr.n csr in
  if nv <= 1 then 0
  else begin
    let net = edge_flow_network_csr csr in
    let best = ref (min_degree csr) in
    let t = ref 1 in
    while !best > 0 && !t < nv do
      Maxflow.Net.reset_flow net;
      let f = Maxflow.max_flow ~limit:!best net ~s:0 ~t:!t in
      if f < !best then best := f;
      incr t
    done;
    !best
  end

let edge_connectivity g = edge_connectivity_csr (Csr.of_graph g)

let is_complete csr =
  let nv = Csr.n csr in
  Csr.m csr = nv * (nv - 1) / 2

(* κ(G) by the min-degree-neighbourhood reduction. *)
let vertex_connectivity_csr csr =
  let nv = Csr.n csr in
  if nv <= 1 then 0
  else if is_complete csr then nv - 1
  else begin
    let v = min_degree_vertex csr in
    let sources = v :: Csr.neighbors csr v in
    let net, v_in, v_out = vertex_split_network_csr csr in
    let best = ref (Csr.degree csr v) in
    List.iter
      (fun s ->
        for t = 0 to nv - 1 do
          if !best > 0 && t <> s && not (Csr.mem_edge csr s t) then begin
            Maxflow.Net.reset_flow net;
            let f = Maxflow.max_flow ~limit:!best net ~s:(v_out s) ~t:(v_in t) in
            if f < !best then best := f
          end
        done)
      sources;
    !best
  end

let vertex_connectivity g = vertex_connectivity_csr (Csr.of_graph g)

(* {2 Decisions: Even's prefix-order test}

   The test and its exactness argument are in the interface and in
   DESIGN.md. Two choices make it fast: BFS order puts each vertex's
   prefix around it, so every augmenting search ends within a small
   ball; and flows and visited marks are generation-stamped, so a
   probe never pays O(n) or O(m) to reset. *)

(* Flat adjacency of a snapshot (a Bigarray snapshot is copied once),
   plus the BFS order and each vertex's rank in it. *)
type prefix = { off : int array; adj : int array; order : int array; rank : int array }

let prefix_order csr =
  let off, adj =
    match Csr.storage csr with
    | Csr.Ints { offsets; neighbors } -> (offsets, neighbors)
    | Csr.Big { offsets; neighbors } ->
        let ints b = Array.init (Bigarray.Array1.dim b) (Bigarray.Array1.get b) in
        (ints offsets, ints neighbors)
  in
  let nv = Csr.n csr in
  let order = Array.make nv 0 and rank = Array.make nv (-1) in
  let head = ref 0 and tail = ref 0 in
  let place v =
    rank.(v) <- !tail;
    order.(!tail) <- v;
    incr tail
  in
  for root = 0 to nv - 1 do
    if rank.(root) < 0 then begin
      place root;
      while !head < !tail do
        let u = order.(!head) in
        incr head;
        for a = off.(u) to off.(u + 1) - 1 do
          if rank.(adj.(a)) < 0 then place adj.(a)
        done
      done
    end
  done;
  { off; adj; order; rank }

(* Per-domain probe scratch. A search labels nodes — split nodes for
   vertex probes (2v is v_in, 2v+1 is v_out), vertices for edge probes
   — recording the generation that reached each one and how. [flow] is
   the probe's flow: a predecessor per vertex, or a net flow per CSR
   slot; an entry counts only while its [stamp] equals the probe. *)
type workspace = {
  mark : int array;
  from : int array;
  queue : int array;
  flow : int array;
  stamp : int array;
  mutable gen : int;
  mutable probe : int;
}

let workspace ~nodes ~flows =
  {
    mark = Array.make nodes 0;
    from = Array.make nodes 0;
    queue = Array.make nodes 0;
    flow = Array.make flows 0;
    stamp = Array.make flows 0;
    gen = 0;
    probe = 0;
  }

(* Are there [k] paths from [src], pairwise sharing only [src], that end
   at [target] (a pair probe: [target] takes any number of paths) or at
   distinct vertices ranked below [limit] (a fan probe)? Each path stops
   at its first sink; shortest augmenting paths, one BFS each, after
   the direct edges. Vertex capacities are 1, so the flow is a
   predecessor per vertex: the vertex whose out-side sends it its unit,
   or -1 when it carries none. *)
let vertex_paths p ws ~k ~src ~target ~limit =
  let off = p.off and adj = p.adj and rank = p.rank in
  let mark = ws.mark and from = ws.from and queue = ws.queue in
  let pred = ws.flow and stamp = ws.stamp in
  ws.probe <- ws.probe + 1;
  let probe = ws.probe in
  let pred_of v = if stamp.(v) = probe then pred.(v) else -1 in
  let set_pred v u =
    stamp.(v) <- probe;
    pred.(v) <- u
  in
  let free_sink w = w = target || (rank.(w) < limit && pred_of w < 0) in
  let found = ref 0 in
  for a = off.(src) to off.(src + 1) - 1 do
    let w = adj.(a) in
    if !found < k && free_sink w then begin
      set_pred w src;
      incr found
    end
  done;
  let src_out = (2 * src) + 1 in
  let stuck = ref false in
  while !found < k && not !stuck do
    ws.gen <- ws.gen + 1;
    let gen = ws.gen in
    mark.(2 * src) <- gen;
    mark.(src_out) <- gen;
    queue.(0) <- src_out;
    let head = ref 0 and tail = ref 1 and hit = ref (-1) in
    let visit x from_x =
      if mark.(x) <> gen then begin
        mark.(x) <- gen;
        from.(x) <- from_x;
        queue.(!tail) <- x;
        incr tail
      end
    in
    while !hit < 0 && !head < !tail do
      let x = queue.(!head) in
      incr head;
      let v = x lsr 1 in
      if x land 1 = 1 then begin
        (* v_out: back across v's own unit if v carries one, then out
           along every edge (edge arcs are uncapacitated) *)
        if pred_of v >= 0 then visit (x - 1) x;
        let a = ref off.(v) and stop = off.(v + 1) in
        while !hit < 0 && !a < stop do
          let w = adj.(!a) in
          let wi = 2 * w in
          if mark.(wi) <> gen then begin
            mark.(wi) <- gen;
            from.(wi) <- x;
            if free_sink w then hit := wi
            else begin
              queue.(!tail) <- wi;
              incr tail
            end
          end;
          incr a
        done
      end
      else begin
        (* v_in, not a free sink: cross v's unit if it is free, else
           push back the unit v receives *)
        let u = pred_of v in
        if u < 0 then visit (x + 1) x else visit ((2 * u) + 1) x
      end
    done;
    if !hit < 0 then stuck := true
    else begin
      (* Rewrite predecessors from the sink back: an arc u_out → w_in
         now carries flow, a reverse step w_in → u_out cancels w's. *)
      let y = ref !hit in
      while !y <> src_out do
        let x = from.(!y) in
        if !y land 1 = 0 && x land 1 = 1 then set_pred (!y lsr 1) (x lsr 1)
        else if !y land 1 = 1 && x land 1 = 0 && x lsr 1 <> !y lsr 1 then set_pred (x lsr 1) (-1);
        y := x
      done;
      incr found
    end
  done;
  !found >= k

(* [rev.(a)] is the slot of the opposite direction of slot a. Rows are
   sorted, so the t-th slot pointing at w (scanning rows in ascending
   order) comes from w's t-th smallest neighbour: one cursor per row. *)
let reverse_slots p =
  let nv = Array.length p.order in
  let rev = Array.make (Array.length p.adj) 0 in
  let cursor = Array.sub p.off 0 nv in
  for u = 0 to nv - 1 do
    for a = p.off.(u) to p.off.(u + 1) - 1 do
      let w = p.adj.(a) in
      rev.(a) <- cursor.(w);
      cursor.(w) <- cursor.(w) + 1
    done
  done;
  rev

(* Are there [k] edge-disjoint paths from [src] to vertices ranked
   below it? The flow is a net value in {−1, 0, 1} per CSR slot; slot a
   and its reverse always hold opposite values. *)
let edge_paths p rev ws ~k ~src =
  let off = p.off and adj = p.adj and rank = p.rank in
  let mark = ws.mark and via = ws.from and queue = ws.queue in
  let flow = ws.flow and stamp = ws.stamp in
  let limit = rank.(src) in
  ws.probe <- ws.probe + 1;
  let probe = ws.probe in
  let flow_of a = if stamp.(a) = probe then flow.(a) else 0 in
  let push a =
    let r = rev.(a) in
    let fa = flow_of a and fr = flow_of r in
    stamp.(a) <- probe;
    flow.(a) <- fa + 1;
    stamp.(r) <- probe;
    flow.(r) <- fr - 1
  in
  let found = ref 0 in
  for a = off.(src) to off.(src + 1) - 1 do
    if !found < k && rank.(adj.(a)) < limit then begin
      push a;
      incr found
    end
  done;
  let stuck = ref false in
  while !found < k && not !stuck do
    ws.gen <- ws.gen + 1;
    let gen = ws.gen in
    mark.(src) <- gen;
    queue.(0) <- src;
    let head = ref 0 and tail = ref 1 and hit = ref (-1) in
    while !hit < 0 && !head < !tail do
      let v = queue.(!head) in
      incr head;
      let a = ref off.(v) and stop = off.(v + 1) in
      while !hit < 0 && !a < stop do
        let w = adj.(!a) in
        if mark.(w) <> gen && flow_of !a <= 0 then begin
          mark.(w) <- gen;
          via.(w) <- !a;
          if rank.(w) < limit then hit := w
          else begin
            queue.(!tail) <- w;
            incr tail
          end
        end;
        incr a
      done
    done;
    if !hit < 0 then stuck := true
    else begin
      let w = ref !hit in
      while !w <> src do
        let a = via.(!w) in
        push a;
        w := adj.(rev.(a))
      done;
      incr found
    end
  done;
  !found >= k

(* Run [probe ws j] for j = 1 .. n−1 and report whether all pass:
   sequentially with an early exit, or split across the pool's domains
   with one workspace each. Every probe is deterministic, so the
   verdict is the same at any domain count. *)
let all_probes ?pool ~nv ~create probe =
  match pool with
  | Some pool when Par.Pool.size pool > 1 ->
      let wss = Array.init (Par.Pool.size pool) (fun _ -> create ()) in
      let ok = Atomic.make true in
      Par.Pool.parallel_for pool ~lo:1 ~hi:nv (fun ~worker j ->
          if Atomic.get ok && not (probe wss.(worker) j) then Atomic.set ok false);
      Atomic.get ok
  | _ ->
      let ws = create () in
      let rec from j = j >= nv || (probe ws j && from (j + 1)) in
      from 1

let is_k_edge_connected_csr ?pool csr ~k =
  if k < 0 then invalid_arg "Connectivity.is_k_edge_connected: negative k";
  if k = 0 then Csr.n csr > 0
  else if Csr.n csr <= 1 || min_degree csr < k then false
  else begin
    let nv = Csr.n csr in
    let p = prefix_order csr in
    let rev = reverse_slots p in
    all_probes ?pool ~nv
      ~create:(fun () -> workspace ~nodes:nv ~flows:(Array.length p.adj))
      (fun ws j -> edge_paths p rev ws ~k ~src:p.order.(j))
  end

let is_k_edge_connected ?pool g ~k = is_k_edge_connected_csr ?pool (Csr.of_graph g) ~k

(* Probe j < k is v_j's pair probes against v₀ … v_{j−1}; probe j ≥ k
   is v_j's fan. *)
let is_k_vertex_connected_csr ?pool csr ~k =
  if k < 0 then invalid_arg "Connectivity.is_k_vertex_connected: negative k";
  if k = 0 then Csr.n csr > 0
  else if Csr.n csr < k + 1 || min_degree csr < k then false
  else begin
    let nv = Csr.n csr in
    let p = prefix_order csr in
    all_probes ?pool ~nv
      ~create:(fun () -> workspace ~nodes:(2 * nv) ~flows:nv)
      (fun ws j ->
        let v = p.order.(j) in
        if j >= k then vertex_paths p ws ~k ~src:v ~target:(-1) ~limit:j
        else begin
          let rec pairs i =
            i >= j
            || (let u = p.order.(i) in
                (Csr.mem_edge csr u v || vertex_paths p ws ~k ~src:u ~target:v ~limit:0)
                && pairs (i + 1))
          in
          pairs 0
        end)
  end

let is_k_vertex_connected ?pool g ~k = is_k_vertex_connected_csr ?pool (Csr.of_graph g) ~k

(* λ = 0 exactly when there is no cut to find: fewer than two
   vertices, or already disconnected *)
let min_edge_cut csr =
  let nv = Csr.n csr in
  let lambda = edge_connectivity_csr csr in
  if lambda = 0 then []
  else begin
    (* find the t minimising maxflow(0, t), then read the cut *)
    let net = edge_flow_network_csr csr in
    let best_t = ref (-1) in
    let t = ref 1 in
    while !best_t < 0 && !t < nv do
      Maxflow.Net.reset_flow net;
      if Maxflow.max_flow ~limit:(lambda + 1) net ~s:0 ~t:!t = lambda then best_t := !t;
      incr t
    done;
    Maxflow.Net.reset_flow net;
    ignore (Maxflow.max_flow net ~s:0 ~t:!best_t);
    let side = Maxflow.min_cut_side net ~s:0 in
    let cut = ref [] in
    Csr.iter_edges csr (fun u v -> if side.(u) <> side.(v) then cut := (u, v) :: !cut);
    List.rev !cut
  end

(* likewise κ = 0 for fewer than two vertices or a disconnected graph;
   a complete graph has no vertex cut at all *)
let min_vertex_cut csr =
  let nv = Csr.n csr in
  let kappa = vertex_connectivity_csr csr in
  if kappa = 0 || is_complete csr then []
  else begin
    let v = min_degree_vertex csr in
    let sources = v :: Csr.neighbors csr v in
    let net, v_in, v_out = vertex_split_network_csr csr in
    (* find an (s,t) pair realising kappa, then cut vertices are the
       saturated interior arcs crossing the residual cut *)
    let found = ref [] and done_ = ref false in
    List.iter
      (fun s ->
        if not !done_ then
          for t = 0 to nv - 1 do
            if (not !done_) && t <> s && not (Csr.mem_edge csr s t) then begin
              Maxflow.Net.reset_flow net;
              if Maxflow.max_flow ~limit:(kappa + 1) net ~s:(v_out s) ~t:(v_in t) = kappa then begin
                let side = Maxflow.min_cut_side net ~s:(v_out s) in
                let cut = ref [] in
                for u = nv - 1 downto 0 do
                  if side.(v_in u) && not side.(v_out u) then cut := u :: !cut
                done;
                found := !cut;
                done_ := true
              end
            end
          done)
      sources;
    !found
  end
