module Graph = Graph_core.Graph
module Csr = Graph_core.Csr

type layout = { copies : int; base_vertex : int array; width : int array }

let vertex_of layout ~node ~copy =
  if copy < 0 || copy >= layout.copies then invalid_arg "Realize.vertex_of: copy out of range";
  if layout.width.(node) = 1 then layout.base_vertex.(node)
  else layout.base_vertex.(node) + copy

let layout_of shape =
  let k = Shape.k shape in
  let sz = Shape.size shape in
  let base_vertex = Array.make sz 0 in
  let width = Array.make sz 1 in
  let next = ref 0 in
  for node = 0 to sz - 1 do
    let w =
      match Shape.kind shape node with
      | Shape.Root | Shape.Internal | Shape.Unshared_leaf -> k
      | Shape.Shared_leaf | Shape.Added_leaf -> 1
    in
    base_vertex.(node) <- !next;
    width.(node) <- w;
    next := !next + w
  done;
  ({ copies = k; base_vertex; width }, !next)

(* Every realised edge exactly once: parents are always non-leaf (width
   k), so the k parent-copy edges of a node are distinct, and clique
   edges stay within one node's replica block — the enumeration can
   never emit a duplicate. *)
let iter_realized_edges shape layout f =
  let k = layout.copies in
  let sz = Shape.size shape in
  for node = 0 to sz - 1 do
    let p = Shape.parent shape node in
    if p >= 0 then
      for copy = 0 to k - 1 do
        f (vertex_of layout ~node:p ~copy) (vertex_of layout ~node ~copy)
      done;
    (match Shape.kind shape node with
    | Shape.Unshared_leaf ->
        (* rule 4a: the k members form a clique *)
        let base = layout.base_vertex.(node) in
        for a = 0 to k - 1 do
          for b = a + 1 to k - 1 do
            f (base + a) (base + b)
          done
        done
    | Shape.Root | Shape.Internal | Shape.Shared_leaf | Shape.Added_leaf -> ())
  done

let realize shape =
  let layout, nv = layout_of shape in
  let g = Graph.create ~n:nv in
  iter_realized_edges shape layout (Graph.add_edge g);
  (g, layout)

let realize_csr shape =
  let layout, nv = layout_of shape in
  let b = Csr.Builder.create ~n:nv () in
  iter_realized_edges shape layout (Csr.Builder.count_edge b);
  Csr.Builder.ready b;
  iter_realized_edges shape layout (Csr.Builder.add_edge b);
  (Csr.Builder.finish b, layout)

let shape_node_of_vertex layout ~n_vertices v =
  if v < 0 || v >= n_vertices then invalid_arg "Realize.shape_node_of_vertex: out of range";
  (* binary search: greatest node with base_vertex <= v *)
  let lo = ref 0 and hi = ref (Array.length layout.base_vertex - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if layout.base_vertex.(mid) <= v then lo := mid else hi := mid - 1
  done;
  let node = !lo in
  (node, v - layout.base_vertex.(node))
