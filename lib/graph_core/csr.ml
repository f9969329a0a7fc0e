type bigints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { n : int; m : int; offsets : bigints; neighbors : bigints }

let alloc len : bigints = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len

(* reads at indices in range by construction skip the bounds check *)
let[@inline] get (a : bigints) i = Bigarray.Array1.unsafe_get a i

let of_graph g =
  let n = Graph.n g in
  let offsets = alloc (n + 1) in
  offsets.{0} <- 0;
  for v = 0 to n - 1 do
    offsets.{v + 1} <- offsets.{v} + Graph.degree g v
  done;
  let neighbors = alloc offsets.{n} in
  let pos = ref 0 in
  for v = 0 to n - 1 do
    (* ISet iteration is ascending, so each row comes out sorted. *)
    Graph.iter_neighbors g v (fun w ->
        Bigarray.Array1.unsafe_set neighbors !pos w;
        incr pos)
  done;
  { n; m = Graph.m g; offsets; neighbors }

let n t = t.n

let m t = t.m

let check_vertex t v name =
  if v < 0 || v >= t.n then
    invalid_arg (Printf.sprintf "Csr.%s: vertex %d out of range [0,%d)" name v t.n)

let degree t v =
  check_vertex t v "degree";
  get t.offsets (v + 1) - get t.offsets v

let neighbors t v =
  check_vertex t v "neighbors";
  let acc = ref [] in
  for i = get t.offsets (v + 1) - 1 downto get t.offsets v do
    acc := get t.neighbors i :: !acc
  done;
  !acc

let iter_neighbors t v f =
  check_vertex t v "iter_neighbors";
  for i = get t.offsets v to get t.offsets (v + 1) - 1 do
    f (get t.neighbors i)
  done

let fold_neighbors t v ~init ~f =
  check_vertex t v "fold_neighbors";
  let acc = ref init in
  iter_neighbors t v (fun w -> acc := f !acc w);
  !acc

(* binary search for [v] inside row [u], which is sorted ascending:
   the slot index of the directed edge (u,v) inside the neighbour
   stream — the natural dense key for per-directed-link state
   (capacities, queues) — or -1 *)
let slot t u v =
  let row_end = get t.offsets (u + 1) in
  let lo = ref (get t.offsets u) and hi = ref row_end in
  (* invariant: the row slot holding v, if any, is in [lo, hi) *)
  while !hi - !lo > 0 do
    let mid = (!lo + !hi) / 2 in
    let w = get t.neighbors mid in
    if w = v then begin
      lo := mid;
      hi := mid
    end
    else if w < v then lo := mid + 1
    else hi := mid
  done;
  if !lo < row_end && get t.neighbors !lo = v then !lo else -1

let mem_edge t u v =
  check_vertex t u "mem_edge";
  check_vertex t v "mem_edge";
  slot t u v >= 0

let edge_index t u v =
  check_vertex t u "edge_index";
  check_vertex t v "edge_index";
  slot t u v

let iter_edges t f =
  for u = 0 to t.n - 1 do
    for i = get t.offsets u to get t.offsets (u + 1) - 1 do
      let v = get t.neighbors i in
      if u < v then f u v
    done
  done

let offsets t = t.offsets

let neighbor_array t = t.neighbors

let degree_sum t = get t.offsets t.n

let min_degree t =
  if t.n = 0 then 0
  else begin
    let md = ref max_int in
    for v = 0 to t.n - 1 do
      let d = get t.offsets (v + 1) - get t.offsets v in
      if d < !md then md := d
    done;
    !md
  end

(* -- direct construction ------------------------------------------------ *)

module Builder = struct
  type csr = t

  type t = {
    bn : int;
    deg : int array;  (** degree counts, re-used as fill cursors after [ready] *)
    offs : int array;  (** row offsets, length n+1, valid after [ready] *)
    mutable nbrs : bigints;  (** the neighbour stream, allocated by [ready] *)
    mutable counting : bool;
  }

  let create ~n () =
    if n < 0 then invalid_arg "Csr.Builder.create: negative n";
    { bn = n; deg = Array.make n 0; offs = Array.make (n + 1) 0; nbrs = alloc 0; counting = true }

  let check b u v name =
    if u < 0 || u >= b.bn || v < 0 || v >= b.bn then
      invalid_arg (Printf.sprintf "Csr.Builder.%s: endpoint out of range [0,%d)" name b.bn);
    if u = v then invalid_arg (Printf.sprintf "Csr.Builder.%s: self-loop" name)

  let count_edge b u v =
    if not b.counting then invalid_arg "Csr.Builder.count_edge: already in the fill phase";
    check b u v "count_edge";
    b.deg.(u) <- b.deg.(u) + 1;
    b.deg.(v) <- b.deg.(v) + 1

  let ready b =
    if not b.counting then invalid_arg "Csr.Builder.ready: already called";
    b.counting <- false;
    for v = 0 to b.bn - 1 do
      b.offs.(v + 1) <- b.offs.(v) + b.deg.(v);
      (* degrees become the per-row fill cursors *)
      b.deg.(v) <- b.offs.(v)
    done;
    b.nbrs <- alloc b.offs.(b.bn)

  let place b u v =
    let p = b.deg.(u) in
    b.deg.(u) <- p + 1;
    b.nbrs.{p} <- v

  let add_edge b u v =
    if b.counting then invalid_arg "Csr.Builder.add_edge: call ready first";
    check b u v "add_edge";
    place b u v;
    place b v u

  (* rows are short for the graphs built this way (degree ~ 2k), so a
     per-row insertion sort beats setting up anything fancier *)
  let sort_row (a : bigints) lo hi =
    for i = lo + 1 to hi - 1 do
      let x = get a i in
      let j = ref (i - 1) in
      while !j >= lo && get a !j > x do
        Bigarray.Array1.unsafe_set a (!j + 1) (get a !j);
        decr j
      done;
      Bigarray.Array1.unsafe_set a (!j + 1) x
    done

  let finish b =
    if b.counting then invalid_arg "Csr.Builder.finish: call ready first";
    for v = 0 to b.bn - 1 do
      if b.deg.(v) <> b.offs.(v + 1) then
        invalid_arg "Csr.Builder.finish: add_edge calls do not match count_edge"
    done;
    let a = b.nbrs and dup = ref false in
    for v = 0 to b.bn - 1 do
      let lo = b.offs.(v) and hi = b.offs.(v + 1) in
      sort_row a lo hi;
      for i = lo + 1 to hi - 1 do
        if get a i = get a (i - 1) then dup := true
      done
    done;
    if !dup then invalid_arg "Csr.Builder.finish: duplicate edge";
    (* Copying the offsets off-heap here, rather than allocating them
       off-heap in [create], measured a lower peak RSS at n = 2^20+2:
       171 against 213 MiB for [lhg_tool flood], 232 against 236 MiB
       for the million benchmark workload. *)
    let offsets = alloc (b.bn + 1) in
    Array.iteri (fun v o -> Bigarray.Array1.unsafe_set offsets v o) b.offs;
    { n = b.bn; m = b.offs.(b.bn) / 2; offsets; neighbors = a }
end
