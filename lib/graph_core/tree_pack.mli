(** Edge-disjoint spanning-tree packing from a frozen CSR snapshot.

    A k-connected LHG contains ⌊k/2⌋ edge-disjoint spanning trees
    (Nash-Williams/Tutte via k-edge-connectivity ≥ k); striping a chunk
    stream round-robin across them is the Kim–Srikant load-spreading
    move that converts the paper's structural guarantee into streaming
    delay. Packing is greedy BFS layer by layer, with a matroid-union
    augmenting-path repair pass when greedy stalls, so the advertised
    count is reached whenever it is feasible; on an infeasible count the
    packer backs off one tree at a time (a disconnected graph raises).
    The repair makes every swap-free insertion in one union-find pass
    and roots its forests once; each augmenting path then re-hangs only
    the forest pieces it moved.

    Trees are stored as flat int arrays (parent/depth plus a CSR-style
    child index carrying the {!Csr.edge_index} slot of each parent→child
    link), so per-chunk forwarding touches contiguous memory and never
    allocates. Packings are deterministic: same snapshot, same source,
    same masks, same trees.

    {2 Masked packing and incremental re-striping}

    [?member] and [?usable] restrict a pack to a live subgraph of the
    snapshot: only member vertices are spanned and only edges whose
    both directed slots pass [usable] may be claimed. This is how one
    frozen CSR — say the union topology of an entire churn trace —
    hosts a pack for every epoch's membership. After the masks change,
    {!patch} re-stripes the existing pack instead of starting the
    search over: it drops the tree edges the new masks invalidate,
    reconnects each broken tree greedily through still-unowned usable
    edges (linear time when that suffices), finishes with the
    augmenting search seeded from the surviving assignment when it
    does not (linear set-up, then one path per missing edge), and
    re-orients. [None] from [patch] means the tree count
    is no longer feasible under the new masks — fall back to a fresh
    masked {!pack}, which also backs the count off. *)

type t

val pack : ?count:int -> ?member:bool array -> ?usable:(int -> bool) -> Csr.t -> source:int -> t
(** [pack csr ~source] packs [count] (default {!default_count})
    edge-disjoint spanning trees rooted at [source]. Falls back to
    fewer trees if [count] is infeasible. With [?member] (length-n
    mask) only member vertices are spanned; with [?usable] (predicate
    on directed CSR slots, applied to both directions) only edges it
    accepts are claimed — the masked subgraph must be connected.
    @raise Invalid_argument on an empty graph or a disconnected
    (masked) subgraph, an out-of-range or non-member source, or
    [count < 1]. *)

val pack_all :
  ?pool:Par.Pool.t ->
  ?count:int ->
  ?member:bool array ->
  ?usable:(int -> bool) ->
  Csr.t ->
  sources:int list ->
  t array
(** One packing per source, in list order; [?pool] fans the (mutually
    independent) packings out across domains. Results are identical to
    the sequential ones at any pool size. *)

val patch : t -> Csr.t -> ?member:bool array -> ?usable:(int -> bool) -> unit -> t option
(** [patch t csr ~member ~usable ()] re-stripes [t] for new masks over
    the {e same} snapshot it was packed on: surviving tree edges keep
    their tree, invalidated ones are dropped, leavers fall out of the
    span, joiners are attached, and each tree's broken components are
    reconnected through edges no tree owns — greedily first, then by
    matroid-union augmentation from the surviving assignment when
    greedy strands a component — all in deterministic order, so equal
    masks give equal packs. The result spans the new member set with
    [count t] edge-disjoint trees, or is [None] when that count is
    infeasible under the new masks (caller should fall back to a fresh
    masked {!pack}, which backs the count off). A no-op mask change
    returns the pack physically unchanged.
    @raise Invalid_argument if [csr] has a different vertex count than
    the pack or the source is masked out. *)

val default_count : Csr.t -> int
(** ⌊min-degree/2⌋, floored at 1 — the paper's ⌊k/2⌋ when the snapshot
    is an admissible (n, k) LHG. *)

val source : t -> int

val count : t -> int
(** Number of trees actually packed (≤ requested). *)

val n : t -> int

val members : t -> int
(** Number of vertices each tree spans — [n t] for an unmasked pack. *)

(** The accessors below take a tree index in [0, count t) and a vertex
    in [0, n t); anything else raises [Invalid_argument]. *)

val parent : t -> tree:int -> int -> int
(** Parent of a vertex in one tree; [-1] at the source (and at
    non-member vertices of a masked pack). *)

val depth : t -> tree:int -> int -> int

val max_depth : t -> tree:int -> int
(** Eccentricity of the source in one tree — a lower bound on that
    tree's worst-case uncongested delivery delay. *)

val iter_children : t -> tree:int -> node:int -> (child:int -> eidx:int -> unit) -> unit
(** Children in ascending order; [eidx] is the {!Csr.edge_index} slot of
    the directed (node → child) link, the key for per-link FIFO state. *)

val edges : t -> tree:int -> (int * int) list
(** The members−1 (parent, child) pairs of one tree, child-ascending. *)
