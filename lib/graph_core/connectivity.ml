(* One flow engine: Even's prefix-order probes, searched straight over
   a frozen CSR. The decisions run every probe; the exact values and
   minimum cuts repeat the decision, reading a smaller cut off the first
   failing probe; the witnesses read the probes' paths back. The
   [Graph.t] entry points snapshot once and delegate. *)

let min_degree_vertex csr =
  let nv = Csr.n csr in
  let best = ref 0 in
  for v = 1 to nv - 1 do
    if Csr.degree csr v < Csr.degree csr !best then best := v
  done;
  !best

let min_degree csr = Csr.degree csr (min_degree_vertex csr)

let is_complete csr =
  let nv = Csr.n csr in
  Csr.m csr = nv * (nv - 1) / 2

(* {2 Probes}

   The test and its exactness argument are in the interface and in
   DESIGN.md. Two choices make it fast: BFS order puts each vertex's
   prefix around it, so every augmenting search ends within a small
   ball; and flows and visited marks are generation-stamped, so a
   probe never pays O(n) or O(m) to reset. *)

(* The snapshot's flat adjacency, plus a vertex order and each
   vertex's rank in it. *)
type prefix = { off : Csr.bigints; adj : Csr.bigints; order : int array; rank : int array }

(* BFS order from vertex 0; unreached vertices follow. *)
let prefix_order csr =
  let off = Csr.offsets csr and adj = Csr.neighbor_array csr in
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
        for a = off.{u} to off.{u + 1} - 1 do
          if rank.(adj.{a}) < 0 then place adj.{a}
        done
      done
    end
  done;
  { off; adj; order; rank }

(* Per-domain probe scratch. A search labels nodes — split nodes for
   vertex probes (2v is v_in, 2v+1 is v_out), vertices for edge probes
   — recording the generation that reached each one and how. [flow] is
   the probe's flow: a predecessor per vertex, or a net flow per CSR
   slot; an entry counts only while its [stamp] equals the probe. After
   a probe falls short, [queue.(0 .. reached-1)] holds what its last,
   stuck search labelled. [ends] are the last hops of a pair probe's
   paths, newest first. *)
type workspace = {
  mark : int array;
  from : int array;
  queue : int array;
  flow : int array;
  stamp : int array;
  mutable gen : int;
  mutable probe : int;
  mutable reached : int;
  mutable ends : int list;
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
    reached = 0;
    ends = [];
  }

let pred_of ws v = if ws.stamp.(v) = ws.probe then ws.flow.(v) else -1

(* Are there [k] paths from [src], pairwise sharing only [src], that end
   at [target] (a pair probe: [target] takes any number of paths) or at
   distinct vertices ranked below [limit] (a fan probe)? Each path stops
   at its first sink; shortest augmenting paths, one BFS each, after
   the direct edges. A direct [src]–[target] edge is one path, used
   once. Vertex capacities are 1, so the flow is a predecessor per
   vertex: the vertex whose out-side sends it its unit, or -1 when it
   carries none. *)
let vertex_paths p ws ~k ~src ~target ~limit =
  let off = p.off and adj = p.adj and rank = p.rank in
  let mark = ws.mark and from = ws.from and queue = ws.queue in
  let pred = ws.flow and stamp = ws.stamp in
  ws.probe <- ws.probe + 1;
  ws.ends <- [];
  let probe = ws.probe in
  let pred_of v = if stamp.(v) = probe then pred.(v) else -1 in
  let set_pred v u =
    stamp.(v) <- probe;
    pred.(v) <- u
  in
  let free_sink w = w = target || (rank.(w) < limit && pred_of w < 0) in
  let found = ref 0 in
  for a = off.{src} to off.{src + 1} - 1 do
    let w = adj.{a} in
    if !found < k && free_sink w then begin
      set_pred w src;
      if w = target then ws.ends <- [ src ];
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
        let a = ref off.{v} and stop = off.{v + 1} in
        while !hit < 0 && !a < stop do
          let w = adj.{!a} in
          let wi = 2 * w in
          if mark.(wi) <> gen then begin
            if not (free_sink w) then begin
              mark.(wi) <- gen;
              from.(wi) <- x;
              queue.(!tail) <- wi;
              incr tail
            end
            else if w <> target || v <> src then begin
              mark.(wi) <- gen;
              from.(wi) <- x;
              hit := wi
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
    if !hit < 0 then begin
      stuck := true;
      ws.reached <- !tail
    end
    else begin
      if !hit = 2 * target then ws.ends <- (from.(!hit) lsr 1) :: ws.ends;
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
  let rev = Array.make (Bigarray.Array1.dim p.adj) 0 in
  let cursor = Array.init nv (fun v -> p.off.{v}) in
  for u = 0 to nv - 1 do
    for a = p.off.{u} to p.off.{u + 1} - 1 do
      let w = p.adj.{a} in
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
  for a = off.{src} to off.{src + 1} - 1 do
    if !found < k && rank.(adj.{a}) < limit then begin
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
      let a = ref off.{v} and stop = off.{v + 1} in
      while !hit < 0 && !a < stop do
        let w = adj.{!a} in
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
    if !hit < 0 then begin
      stuck := true;
      ws.reached <- !tail
    end
    else begin
      let w = ref !hit in
      while !w <> src do
        let a = via.(!w) in
        push a;
        w := adj.{rev.(a)}
      done;
      incr found
    end
  done;
  !found >= k

(* Probe j of the κ ≥ k test: v_j's pair probes against v₀ … v_{j−1}
   while j < k, v_j's fan after. *)
let vertex_probe csr p ~k ws j =
  let v = p.order.(j) in
  if j >= k then vertex_paths p ws ~k ~src:v ~target:(-1) ~limit:j
  else begin
    let rec pairs i =
      i >= j
      || (let u = p.order.(i) in
          (Csr.mem_edge csr u v || vertex_paths p ws ~k ~src:u ~target:v ~limit:0) && pairs (i + 1))
    in
    pairs 0
  end

let edge_probe p rev ~k ws j = edge_paths p rev ws ~k ~src:p.order.(j)

(* The first j in 1 .. nv−1 whose probe fails, running them in order on
   one workspace, which then holds that probe's stuck search. *)
let first_failure ws ~nv probe =
  let rec from j = if j >= nv then None else if probe ws j then from (j + 1) else Some j in
  from 1

(* Do all probes pass? Sequentially with an early exit, or split across
   the pool's domains with one workspace each. Every probe is
   deterministic, so the verdict is the same at any domain count. *)
let all_probes ?pool ~nv ~create probe =
  match pool with
  | Some pool when Par.Pool.size pool > 1 ->
      let wss = Array.init (Par.Pool.size pool) (fun _ -> create ()) in
      let ok = Atomic.make true in
      Par.Pool.parallel_for pool ~lo:1 ~hi:nv (fun ~worker j ->
          if Atomic.get ok && not (probe wss.(worker) j) then Atomic.set ok false);
      Atomic.get ok
  | _ -> first_failure (create ()) ~nv probe = None

let vertex_workspace csr = workspace ~nodes:(2 * Csr.n csr) ~flows:(Csr.n csr)

let edge_workspace p =
  workspace ~nodes:(Array.length p.order) ~flows:(Bigarray.Array1.dim p.adj)

let is_k_edge_connected_csr ?pool csr ~k =
  if k < 0 then invalid_arg "Connectivity.is_k_edge_connected: negative k";
  if k = 0 then Csr.n csr > 0
  else if Csr.n csr <= 1 || min_degree csr < k then false
  else begin
    let p = prefix_order csr in
    let rev = reverse_slots p in
    all_probes ?pool ~nv:(Csr.n csr) ~create:(fun () -> edge_workspace p) (edge_probe p rev ~k)
  end

let is_k_edge_connected ?pool g ~k = is_k_edge_connected_csr ?pool (Csr.of_graph g) ~k

let is_k_vertex_connected_csr ?pool csr ~k =
  if k < 0 then invalid_arg "Connectivity.is_k_vertex_connected: negative k";
  if k = 0 then Csr.n csr > 0
  else if Csr.n csr < k + 1 || min_degree csr < k then false
  else begin
    let p = prefix_order csr in
    all_probes ?pool ~nv:(Csr.n csr) ~create:(fun () -> vertex_workspace csr) (vertex_probe csr p ~k)
  end

let is_k_vertex_connected ?pool g ~k = is_k_vertex_connected_csr ?pool (Csr.of_graph g) ~k

(* {2 Exact values and minimum cuts}

   Decide at k = δ. When every probe passes, the value is δ and the
   first minimum-degree vertex's neighbourhood (its edges) is a minimum
   cut. Otherwise the first failing probe's stuck search is a cut of
   fewer than k elements; decide again at its size. *)

(* The cut behind a stuck vertex probe: the vertices whose in-side the
   last search labelled and whose out-side it did not. That includes
   every labelled prefix sink, whose out-side is never searched. *)
let vertex_cut ws =
  let cut = ref [] in
  for i = 0 to ws.reached - 1 do
    let x = ws.queue.(i) in
    if x land 1 = 0 && ws.mark.(x + 1) <> ws.gen then cut := (x lsr 1) :: !cut
  done;
  List.sort compare !cut

(* The cut behind a stuck edge probe: the edges leaving the labelled set. *)
let edge_cut p ws =
  let cut = ref [] in
  for i = 0 to ws.reached - 1 do
    let v = ws.queue.(i) in
    for a = p.off.{v} to p.off.{v + 1} - 1 do
      let w = p.adj.{a} in
      if ws.mark.(w) <> ws.gen then cut := (min v w, max v w) :: !cut
    done
  done;
  List.sort compare !cut

let rec settle decide k cut =
  if k = 0 then (0, cut)
  else match decide ~k with None -> (k, cut) | Some c -> settle decide (List.length c) c

(* (κ, a minimum vertex cut) for n ≥ 2; the cut is a neighbourhood
   when κ = δ, so it separates nothing in a complete graph. *)
let vertex_settle csr =
  let nv = Csr.n csr in
  let p = prefix_order csr in
  let ws = vertex_workspace csr in
  let v = min_degree_vertex csr in
  settle
    (fun ~k -> Option.map (fun _ -> vertex_cut ws) (first_failure ws ~nv (vertex_probe csr p ~k)))
    (Csr.degree csr v) (Csr.neighbors csr v)

let edge_settle csr =
  let nv = Csr.n csr in
  let p = prefix_order csr in
  let rev = reverse_slots p in
  let ws = edge_workspace p in
  let v = min_degree_vertex csr in
  settle
    (fun ~k -> Option.map (fun _ -> edge_cut p ws) (first_failure ws ~nv (edge_probe p rev ~k)))
    (Csr.degree csr v)
    (List.map (fun w -> (min v w, max v w)) (Csr.neighbors csr v))

let vertex_connectivity_csr csr = if Csr.n csr <= 1 then 0 else fst (vertex_settle csr)

let vertex_connectivity g = vertex_connectivity_csr (Csr.of_graph g)

let edge_connectivity_csr csr = if Csr.n csr <= 1 then 0 else fst (edge_settle csr)

let edge_connectivity g = edge_connectivity_csr (Csr.of_graph g)

let min_vertex_cut csr = if is_complete csr then [] else snd (vertex_settle csr)

let min_edge_cut csr = if Csr.n csr <= 1 then [] else snd (edge_settle csr)

(* {2 Witnesses}

   Probes on the identity order, so the hubs are 0 … k−1; the paths
   are read back off the predecessors. *)

type probe = { pre : prefix; ws : workspace }

let probe csr =
  let id = Array.init (Csr.n csr) Fun.id in
  let pre = { off = Csr.offsets csr; adj = Csr.neighbor_array csr; order = id; rank = id } in
  { pre; ws = vertex_workspace csr }

let check_vertex { pre; _ } name v =
  if v < 0 || v >= Array.length pre.order then invalid_arg (name ^ ": vertex out of range")

(* The path [src; …; v] of the unit that [v] carries, followed by [tail]. *)
let rec back ws ~src v tail = if v = src then src :: tail else back ws ~src (pred_of ws v) (v :: tail)

let pair_paths pr ~k s t =
  check_vertex pr "Connectivity.pair_paths" s;
  check_vertex pr "Connectivity.pair_paths" t;
  if s = t then invalid_arg "Connectivity.pair_paths: s = t";
  ignore (vertex_paths pr.pre pr.ws ~k ~src:s ~target:t ~limit:0);
  List.rev_map (fun x -> back pr.ws ~src:s x [ t ]) pr.ws.ends

let fan_paths pr ~k u =
  check_vertex pr "Connectivity.fan_paths" u;
  if u < k then invalid_arg "Connectivity.fan_paths: target among the hubs";
  ignore (vertex_paths pr.pre pr.ws ~k ~src:u ~target:(-1) ~limit:k);
  List.filter_map
    (fun h -> if pred_of pr.ws h < 0 then None else Some (List.rev (back pr.ws ~src:u h [])))
    (List.init k Fun.id)
