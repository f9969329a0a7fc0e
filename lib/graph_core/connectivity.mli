(** Vertex and edge connectivity, minimum cuts and Menger witnesses,
    all from one unit-flow engine: Even's prefix-order probes.

    {2 The decisions}

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
    one workspace per domain — same verdict at any domain count.

    {2 Exact values and minimum cuts}

    These repeat the decision, sequentially, so they and their cuts do
    not depend on a pool. Decide at k = δ(G). If every probe passes,
    the value is δ, and the neighbourhood of the first minimum-degree
    vertex v (for edges: v's incident edges) is a minimum cut — it
    isolates v from a vertex v is not adjacent to, which exists unless
    G is complete. Otherwise the first probe to fail, in prefix order,
    got stuck with fewer than k paths, and max-flow/min-cut reads a cut
    off its last search:

    - a vertex probe: the vertices whose in-side the search labelled
      and whose out-side it did not. A labelled prefix sink is one of
      them; its out-side is never searched. The cut separates v_j from
      its prefix vertices outside it — there are some, since the
      prefix has at least k vertices — or a pair probe's source from
      its target;
    - an edge probe: the edges leaving the labelled set, which
      separate v_j from v₀.

    Either way it is a cut C of G with |C| < k; decide again at |C|.
    Reading C costs no more than the search that labelled it. The value
    strictly falls, so this takes at most δ − κ + 1 decisions, and only
    the last runs every probe: on a k-connected LHG with δ = k, one
    decision each for κ and λ — both cuts of kdiamond n = 4098, k = 4
    in 0.06 s, of n = 2²⁰+2 in about 105 s at a 291 MiB peak (one core
    of a 2-core VM). *)

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

(** {2 CSR variants}

    The [Graph.t] functions above snapshot the graph once and delegate
    to these; callers that already hold a {!Csr.t} (e.g. the LHG
    verifier, which runs several connectivity checks over one frozen
    topology) should use them directly. *)

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

(** {2 Menger witnesses}

    The same vertex probes on the identity order (vertex v has rank v),
    reading their paths back off the flow: the certificate of
    [Overlay.Cert], whose hubs are the first k vertices, and
    {!Minimality}'s local test. *)

type probe
(** Probe scratch over one snapshot. A probe is reused by every query
    on that snapshot, from one domain at a time; each query costs only
    the part of the graph its searches explore. *)

val probe : Csr.t -> probe

val pair_paths : probe -> k:int -> int -> int -> int list list
(** [pair_paths pr ~k s t]: up to [k] internally disjoint paths
    [[s; …; t]] — fewer exactly when κ(s,t) < k, where a direct s–t
    edge is one path, used once (so for adjacent s, t the count is
    1 + κ(s,t) in G − st).
    @raise Invalid_argument when [s = t] or either is out of range. *)

val fan_paths : probe -> k:int -> int -> int list list
(** [fan_paths pr ~k u], [u ≥ k]: up to [k] paths [[h; …; u]], one per
    hub h < k that is reached, in hub order, pairwise sharing only [u]
    — all [k] of them exactly when such a fan exists.
    @raise Invalid_argument when [u < k] or [u] is out of range. *)
