(** Link minimality (LHG property P3).

    A k-connected graph is link-minimal when removing any single edge
    lowers its node or link connectivity below k. Given λ(G) ≥ k and
    κ(G) ≥ k, removing e = (u,v) creates a sub-k cut iff that cut
    separates u from t = v (any other cut would already exist in G), so
    a local test at the endpoints of the removed edge is exact.

    The local test needs no flow for most edges. κ(u,v) ≤ λ(u,v), so
    the edge is critical iff κ(u,v) < k in G − e. That holds when an
    endpoint has degree ≤ k in G, since it keeps at most k−1
    neighbours. Otherwise κ_G(u,v) = 1 + κ_{G−e}(u,v), so one pair
    probe ({!Connectivity.pair_paths}) asks for k+1 paths in G, with
    the edge itself used once — no edge-deleted copy. On the LHG
    families every edge has an endpoint of degree k, so the sweep is a
    degree scan.

    The sweep entry points take [?pool] and distribute the probed
    edges across domains, one probe workspace each; answers are
    identical at any domain count. *)

val edge_is_critical : Graph.t -> k:int -> int -> int -> bool
(** [edge_is_critical g ~k u v]: does removing edge (u,v) drop
    λ(u,v) or κ(u,v) in [g - (u,v)] below [k]? Requires the edge to be
    present. *)

val is_link_minimal : ?pool:Par.Pool.t -> Graph.t -> k:int -> bool
(** Every edge is critical. A degree scan, plus one pair probe per edge
    whose endpoints both have degree above [k]. *)

val is_link_minimal_csr : ?pool:Par.Pool.t -> Csr.t -> k:int -> bool
(** {!is_link_minimal} over an existing snapshot. *)

val non_critical_edges : ?pool:Par.Pool.t -> Graph.t -> k:int -> (int * int) list
(** The edges whose removal keeps both connectivities ≥ k — empty iff
    {!is_link_minimal}. Edge order matches {!Graph.iter_edges}
    regardless of [pool]. Useful diagnostics in tests and in the
    verifier's error reports. *)
