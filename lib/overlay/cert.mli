(** Menger witnesses for k-connectivity: the certificate that
    [lhg_tool assemble --certify] rebuilds over a realized overlay.
    ({!Controller} verifies its epochs with {!Lhg_core.Verify.quick}
    instead.) {!check} and {!armed} are kept for the end-to-end
    benchmark's shadow replay ([bench/e2e/workloads.ml]).

    {!rebuild} stores constructive witnesses for the hub set
    L = {0..k−1}:

    - {b hub pairs} — k internally vertex-disjoint paths between every
      pair of hub vertices ({!Graph_core.Menger.vertex_disjoint_paths});
    - {b fans} — for every vertex u ∉ L, a k-fan: k paths from the k
      hub vertices to u, pairwise vertex-disjoint except at u. All fan
      probes of one graph share one vertex-split flow network (frozen
      from a {!Graph_core.Csr.t}, super-source arcs into the hubs), reset
      per target; it finds exactly the path sets
      {!Graph_core.Menger.fan_paths} would.

    {b Soundness.} If all certificates hold, κ(G) ≥ k. Suppose a cut C
    with |C| ≤ k−1 disconnected G. L ⊄ C, so some hub survives. If two
    hubs end up in different components, C must hit all k internally
    disjoint paths of their pair certificate — impossible with k−1
    vertices. So L \ C sits in one component; any separated u ∉ C has a
    fan of k paths to k distinct hubs sharing only u, and C must hit
    every one — again impossible. κ ≥ k also gives λ ≥ k (Whitney), so
    surviving certificates cover P1 and P2.

    {b Diameter.} P4 is decided separately and exactly, by
    {!Graph_core.Paths.diameter_at_most_csr} against
    {!Lhg_core.Verify.diameter_bound}: one BFS from vertex 0 settles it
    when 2·ecc(0) is within the bound (or ecc(0) is not); otherwise an
    eccentricity sweep decides, stopping at the first eccentricity
    above the bound. A diameter miss says nothing about connectivity:
    the refreshed certificates stay armed.

    {b Invalidation rule} ({!check}). Adding edges can never break a
    stored witness, so a certificate is dirty iff one of its path
    vertices is an endpoint of a removed edge or a retired id. Dirty
    certificates are first re-walked edge-by-edge (O(path length)); only
    a failed walk pays a max-flow probe; only a failed probe disarms
    the cache. *)

type report = {
  connectivity_ok : bool;  (** every certificate holds ⟹ κ ≥ k ⟹ λ ≥ k *)
  diameter_ok : bool;
      (** exact diameter within the P4 bound; [false] whenever
          [connectivity_ok] is [false], since the check then never runs *)
  reused : int;  (** certificates untouched by the epoch *)
  revalidated : int;  (** dirty certificates whose stored paths still held *)
  recomputed : int;  (** certificates recomputed by a flow probe *)
}

val ok : report -> bool
(** [connectivity_ok && diameter_ok] — the epoch is certified. *)

type t

val create : k:int -> t
(** An empty (unarmed) cache. @raise Invalid_argument when [k < 2]. *)

val armed : t -> bool
(** An armed cache certifies the last graph it accepted; {!check}
    requires it. Arm with {!rebuild} after a full verification. *)

val fan : t -> int -> int list list
(** The stored k-fan of vertex [u] (k ≤ u < the certified size), one
    path [hub; ...; u] per hub in hub order; [[]] outside that range. *)

val rebuild : t -> graph:Graph_core.Graph.t -> bool
(** Recompute every certificate from scratch; [true] (cache armed) iff
    every probe found k paths — guaranteed by Menger whenever the graph
    is actually k-connected, so rebuilding after a successful full
    verification always arms. *)

val check : t -> graph:Graph_core.Graph.t -> removed:(int * int) list -> report
(** Certify [graph], given that it differs from the last certified
    graph by this epoch's diff — [removed] are the deleted edges (the
    caller's {!Diff.t}[.removed]); retired vertices are inferred from
    the size change, and added edges need no accounting. On a failed
    probe the cache disarms and the caller must fall back to full
    verification, then {!rebuild}. A failed diameter check leaves the
    cache armed on [graph].
    @raise Invalid_argument when the cache is not armed. *)
