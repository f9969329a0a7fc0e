(** Realise a tree shape as the pasted-copies graph.

    Every non-leaf shape node becomes k vertices (one per tree copy
    T₁..T_k); every shared/added leaf becomes one vertex shared by all
    copies; every unshared leaf becomes k vertices forming a clique,
    member i attached to copy i (K-DIAMOND rule 4). *)

type layout = {
  copies : int;  (** = k *)
  base_vertex : int array;  (** shape node → first graph vertex id *)
  width : int array;  (** shape node → 1 (shared) or k (replicated/clique) *)
}

val vertex_of : layout -> node:int -> copy:int -> int
(** The graph vertex representing [node] as seen from tree copy [copy]:
    the shared vertex when width is 1, otherwise the copy-th replica or
    clique member. *)

val realize : Shape.t -> Graph_core.Graph.t * layout
(** Build the graph. The vertex count equals {!Shape.vertex_count}. *)

val realize_csr : Shape.t -> Graph_core.Csr.t * layout
(** Realise straight into a CSR snapshot through {!Csr.Builder},
    skipping the adjacency-set graph — same vertices, same edges, same
    ascending neighbour order as [Csr.of_graph (fst (realize shape))],
    at a fraction of the cost. The construction path for million-node
    topologies. *)

val shape_node_of_vertex : layout -> n_vertices:int -> int -> int * int
(** Inverse lookup [(node, copy)] for a graph vertex ([copy] is 0 for
    width-1 nodes). O(log size) by binary search over base offsets. *)
