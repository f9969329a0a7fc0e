(** Distance aggregates: diameter, radius, average path length, and the
    decision [diameter ≤ bound].

    All-pairs quantities run one BFS per vertex — O(n·m). Every entry
    point freezes the graph into one {!Csr.t} snapshot and sweeps it
    with a single reused {!Bfs.Workspace}, so the per-source cost is a
    flat-array BFS with no allocation; callers that already hold a
    snapshot can use the [_csr] variants to skip the freeze. The
    decision {!diameter_at_most_csr} does not sweep: it covers the
    vertices with eccentricity upper bounds, usually in a few passes.

    The sweep entry points also take [?pool]: per-source BFS passes are
    independent reads of the immutable snapshot, so with a
    {!Par.Pool.t} they fan out across domains (one workspace per
    domain). Results are identical to the sequential sweep at any
    domain count; omitting [pool] (or passing a 1-domain pool) runs the
    original sequential code. *)

val diameter : ?pool:Par.Pool.t -> ?alive:bool array -> Graph.t -> int option
(** Exact diameter (max over vertices of eccentricity), or [None] when
    the (alive part of the) graph is disconnected or empty. *)

val radius : ?pool:Par.Pool.t -> ?alive:bool array -> Graph.t -> int option
(** Min eccentricity, with the same conventions as {!diameter}. *)

val average_path_length : ?alive:bool array -> Graph.t -> float option
(** Mean hop distance over all ordered pairs of distinct alive vertices,
    or [None] when disconnected or fewer than two alive vertices. *)

val eccentricities : ?pool:Par.Pool.t -> ?alive:bool array -> Graph.t -> int option array
(** Per-vertex eccentricity ([None] for dead vertices or when some alive
    vertex is unreachable from that vertex). *)

val diameter_lower_bound : Graph.t -> seeds:int list -> int
(** Cheap lower bound: max eccentricity over the given BFS seed
    vertices. Useful to confirm "linear diameter" on very large graphs
    without n BFS passes. Requires a connected graph and non-empty
    seeds. *)

val diameter_csr : ?pool:Par.Pool.t -> ?alive:bool array -> Csr.t -> int option
(** {!diameter} over an existing snapshot. *)

val diameter_at_most_csr : Csr.t -> bound:int -> bool
(** Exact decision [diameter ≤ bound] ([false] when disconnected or
    empty), by an eccentricity-bound cover. Every vertex w keeps an
    upper bound ub(w), at first unbounded. BFS from vertex 0; after a
    BFS from v, set ub(w) ← min(ub(w), ecc(v) + d(v, w)) for every w,
    and start the next BFS at the vertex with the largest bound, ties
    to the lowest id. The answer is [false] at the first unreachable
    vertex or eccentricity above [bound], and [true] once every bound
    is within it.

    Both answers are exact. d(w, x) ≤ d(w, v) + d(v, x) ≤ d(v, w) +
    ecc(v) for every x, so ub(w) ≥ ecc(w) throughout, and bounds within
    [bound] put the diameter there; a [false] names a vertex whose
    eccentricity is too large. A BFS source's own bound becomes its
    exact eccentricity, so while the largest bound is above [bound] it
    belongs to a vertex not yet searched: at most n passes.

    Passes at the verifier's P4 bound on kdiamond, k = 4: 4 at every
    n from 1026 to 65538 (0.002 s at 16386, one core of a 2-core VM),
    85 at 131074 and 1,084 at 262146 (5.7 s); 3 at k = 3 and 1 at
    k = 7 (n = 4098). One pass decides random_regular, kdiamond_rich,
    and harary past its bound. *)

val radius_csr : ?pool:Par.Pool.t -> ?alive:bool array -> Csr.t -> int option

val eccentricities_csr : ?pool:Par.Pool.t -> ?alive:bool array -> Csr.t -> int option array
