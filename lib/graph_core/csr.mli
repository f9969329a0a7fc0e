(** Immutable compressed-sparse-row adjacency snapshots.

    {!Graph.t} is the mutable build-side representation: adjacency sets
    make edge insertion/removal simple and keep iteration deterministic,
    but every neighbour visit pays O(log d) pointer chasing. A [Csr.t]
    freezes a graph into two flat arrays — row {!offsets} and a
    concatenated, per-row-sorted {!neighbor_array} stream — so
    traversals (BFS, flooding, flow probes) run over contiguous memory
    with O(1) neighbour access and zero allocation.

    Both arrays are [Bigarray]s outside the OCaml heap, so a
    multi-million-entry adjacency never adds to major-GC marking work.

    A snapshot is a value: it never observes later mutations of the
    source graph. Re-run {!of_graph} after the edge set changes.
    Neighbour iteration order is ascending, identical to {!Graph}'s. *)

type bigints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The element kind and layout are public so that a read in another
    module compiles to an inline load rather than a C call. *)

type t

val of_graph : Graph.t -> t
(** Freeze the current edge set of a graph. O(n + m). *)

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of (undirected) edges. *)

val degree : t -> int -> int
(** O(1): [offsets.{v+1} - offsets.{v}]. *)

val neighbors : t -> int -> int list
(** Ascending list of neighbours (allocates; prefer the iterators). *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** Visit neighbours in ascending order. *)

val fold_neighbors : t -> int -> init:'a -> f:('a -> int -> 'a) -> 'a

val mem_edge : t -> int -> int -> bool
(** Edge membership by binary search within the row: O(log d). *)

val edge_index : t -> int -> int -> int
(** The slot index of the directed edge (u,v) inside the concatenated
    neighbour stream, or [-1] if absent — the same O(log d) search as
    {!mem_edge}. Every directed edge owns one dense slot in
    [\[0, degree_sum)], which makes the result the natural key for
    per-link state (capacities, FIFO queues) kept in flat arrays
    alongside the snapshot. *)

val iter_edges : t -> (int -> int -> unit) -> unit
(** Each undirected edge exactly once, as [u < v], lexicographically. *)

val offsets : t -> bigints
(** The raw row-offset array, length [n + 1]: row [v] occupies indices
    [offsets.{v} .. offsets.{v+1} - 1] of {!neighbor_array}. For flat
    hot loops (BFS, flow probes, the message plane). {b Do not
    mutate.} *)

val neighbor_array : t -> bigints
(** The raw concatenated neighbour stream, length [2m], each row sorted
    ascending. {b Do not mutate.} *)

val degree_sum : t -> int
(** Sum of degrees = [2 * m]. O(1). *)

val min_degree : t -> int
(** The smallest vertex degree δ, [0] for the empty graph. O(n). *)

(** Direct CSR construction, skipping the Set-backed {!Graph.t}
    entirely — the path that makes million-node topologies cheap.
    Callers enumerate their edges twice:

    {[
      let b = Csr.Builder.create ~n () in
      iter_edges (Csr.Builder.count_edge b);
      Csr.Builder.ready b;
      iter_edges (Csr.Builder.add_edge b);
      let csr = Csr.Builder.finish b
    ]}

    Both passes must produce the same multiset of edges (checked), with
    no self-loops and no duplicates (checked at {!Builder.finish}). *)
module Builder : sig
  type csr = t

  type t

  val create : n:int -> unit -> t
  (** A builder for an [n]-vertex graph. *)

  val count_edge : t -> int -> int -> unit
  (** Phase 1: account one undirected edge (both endpoint degrees). *)

  val ready : t -> unit
  (** Close the counting phase: prefix-sums the offsets and allocates
      the neighbour store. *)

  val add_edge : t -> int -> int -> unit
  (** Phase 2: place one undirected edge (both directions). *)

  val finish : t -> csr
  (** Sort each row ascending (insertion sort — rows are short for the
      bounded-degree constructions this serves) and seal the snapshot.
      @raise Invalid_argument if the fill phase did not replay the
      counting phase exactly, or on a duplicate edge. *)
end
