(** Vertex and edge connectivity via unit-capacity max-flow.

    Local (pairwise) connectivities follow Menger's theorem:
    - λ(s,t) = max number of edge-disjoint s–t paths = max-flow with
      bidirectional unit arcs;
    - κ(s,t) = max number of internally vertex-disjoint s–t paths =
      max-flow on the vertex-split network (each vertex v becomes
      v_in → v_out with capacity 1; s and t are not split).

    Global values:
    - λ(G) = min over t ≠ v₀ of λ(v₀, t), because every edge cut
      separates v₀ from some vertex;
    - κ(G) = min over s ∈ {v} ∪ N(v) (v a minimum-degree vertex) and t
      non-adjacent to s of κ(s,t). Correctness: a minimum vertex cut C
      has |C| = κ(G) ≤ δ(G) = |N(v)| < |{v} ∪ N(v)|, so some
      w ∈ {v} ∪ N(v) avoids C and lies in one component of G − C; any
      vertex t of another component is non-adjacent to w and
      κ(w,t) = κ(G). Complete graphs (no non-adjacent pair) have
      κ(Kₙ) = n − 1 by convention.

    The exact values above run Dinic ({!Maxflow}) with a shrinking
    limit. The decision forms, used by the LHG verifier, run Even's
    prefix-order test instead:

    - order the vertices v₀, v₁, … by BFS from vertex 0 (unreached
      vertices follow) and answer [false] at once when δ(G) < k;
    - κ(G) ≥ k iff the non-adjacent pairs among v₀ … v_{k−1} each have
      k internally disjoint paths and every later v_j has k paths to k
      distinct vertices of {v₀ … v_{j−1}}, pairwise sharing only v_j;
    - λ(G) ≥ k iff every v_j, j ≥ 1, has k edge-disjoint paths to
      {v₀ … v_{j−1}}.

    Exactness: a k-connected graph passes every probe (Menger, the fan
    lemma). Conversely, take a cut C of fewer than k vertices (edges).
    If two survivors among v₀ … v_{k−1} lie on different sides of it,
    their pair probe fails. Otherwise let v_j be the first vertex that
    is neither in C nor on their side (for edges: the first vertex
    across the cut from v₀). All of v_j's prefix lies across C from
    v_j, so each of its k paths needs its own element of C, and its
    probe fails. DESIGN.md gives the full argument.

    Cost: one probe per vertex, each up to k shortest augmenting paths
    searched straight over the CSR with an implicit vertex split.
    Flows and visited marks are generation-stamped, so a probe pays
    only for the ball it explores around v_j — about 40 (edge) and 125
    (vertex) search steps per augmenting path on kdiamond n = 1026,
    k = 4, and 110 / 370 at n = 16386. The worst case is O(k·m) per
    probe. Measured on one core of a 2-core VM: κ ≥ 4 in 0.003–0.006 s
    and λ ≥ 4 in 0.002–0.003 s at n = 1026; 0.24–0.26 s and 0.10–0.11 s
    at n = 16386.

    The decisions take [?pool]: the probes are independent and
    deterministic, so a {!Par.Pool.t} splits them across domains with
    one workspace per domain — same verdict at any domain count. *)

val local_edge_connectivity : ?limit:int -> Graph.t -> s:int -> t:int -> int
(** λ(s,t); with [~limit] the returned value is capped at [limit]. *)

val local_vertex_connectivity : ?limit:int -> Graph.t -> s:int -> t:int -> int
(** κ(s,t) for non-adjacent s ≠ t. For adjacent s,t the function returns
    [1 + κ'(s,t)] where κ' is computed in the graph without the edge —
    the standard extension (the direct edge is one path). *)

val edge_connectivity : Graph.t -> int
(** Exact λ(G); 0 for disconnected or single-vertex graphs. *)

val vertex_connectivity : Graph.t -> int
(** Exact κ(G); [n-1] for complete graphs, 0 when disconnected. *)

val is_k_edge_connected : ?pool:Par.Pool.t -> Graph.t -> k:int -> bool
(** Decision: λ(G) ≥ k, by the prefix-order test above. [k = 0] is
    trivially true for non-empty graphs. *)

val is_k_vertex_connected : ?pool:Par.Pool.t -> Graph.t -> k:int -> bool
(** Decision: κ(G) ≥ k, by the prefix-order test above (requires
    n ≥ k+1 for k ≥ 1, per the standard definition). *)

val edge_flow_network : Graph.t -> Maxflow.Net.t
(** The reusable bidirectional unit network of a graph (one node per
    vertex). Exposed for callers issuing many (s,t) queries. *)

val vertex_split_network : Graph.t -> Maxflow.Net.t * (int -> int) * (int -> int)
(** [(net, v_in, v_out)]: the vertex-split unit network. Terminal
    vertices of a κ(s,t) query must use [v_out s] as source and
    [v_in t] as sink; the splitting arc of s and t is effectively
    bypassed because flow leaves from s_out and enters t_in. *)

(** {2 CSR variants}

    The [Graph.t] functions above snapshot the graph once and delegate
    to these; callers that already hold a {!Csr.t} (e.g. the LHG
    verifier, which runs several connectivity checks over one frozen
    topology) should use them directly. Networks are built in one pass
    with exact arc preallocation. *)

val edge_flow_network_csr : Csr.t -> Maxflow.Net.t

val vertex_split_network_csr : Csr.t -> Maxflow.Net.t * (int -> int) * (int -> int)

val edge_connectivity_csr : Csr.t -> int

val vertex_connectivity_csr : Csr.t -> int

val is_k_edge_connected_csr : ?pool:Par.Pool.t -> Csr.t -> k:int -> bool

val is_k_vertex_connected_csr : ?pool:Par.Pool.t -> Csr.t -> k:int -> bool

val min_edge_cut : Csr.t -> (int * int) list
(** An actual minimum edge cut of a frozen snapshot: λ(G) edges, as
    [u < v] pairs in {!Csr.iter_edges} order, whose removal disconnects
    G (empty when G is already disconnected or has ≤ 1 vertex). *)

val min_vertex_cut : Csr.t -> int list
(** An actual minimum vertex cut of a frozen snapshot: κ(G) vertices,
    ascending, whose removal disconnects G. Empty when G is complete
    (no vertex cut exists) or already disconnected. Useful for
    pinpointing the weak spots of a topology — e.g. which peers an
    adversary must crash. *)
