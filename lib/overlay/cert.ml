module Graph = Graph_core.Graph
module Csr = Graph_core.Csr
module Connectivity = Graph_core.Connectivity
module Paths = Graph_core.Paths
module Verify = Lhg_core.Verify

type report = {
  connectivity_ok : bool;
  diameter_ok : bool;
  reused : int;
  revalidated : int;
  recomputed : int;
}

let ok r = r.connectivity_ok && r.diameter_ok

type t = {
  k : int;
  mutable armed : bool;
  mutable n : int;  (** size the certificates cover *)
  mutable fans : int list list array;
      (** index u ≥ k: a k-fan — k paths from the k hub vertices to u,
          vertex-disjoint except at u. Slots below k are unused. *)
  mutable pairs : int list list array;
      (** index p over hub pairs (i,j), i < j < k: k internally disjoint
          i–j paths. *)
}

let create ~k =
  if k < 2 then invalid_arg "Cert.create: k must be >= 2";
  { k; armed = false; n = 0; fans = [||]; pairs = [||] }

let armed t = t.armed

let fan t u = if u >= t.k && u < t.n then t.fans.(u) else []

let pair_count k = k * (k - 1) / 2

(* pairs are enumerated (0,1) (0,2) .. (0,k-1) (1,2) .. ; the inverse
   mapping is only needed for recomputation, where we re-enumerate. *)
let iter_hub_pairs k f =
  let p = ref 0 in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      f !p i j;
      incr p
    done
  done

(* A stored path still witnesses iff every vertex is in range and every
   consecutive pair is still an edge. Added edges can never break a
   certificate, so this is the whole invalidation story. *)
let path_intact g ~n p =
  let rec go = function
    | u :: (v :: _ as rest) -> u < n && v < n && Graph.has_edge g u v && go rest
    | [ u ] -> u < n
    | [] -> true
  in
  go p

let fan_intact g ~n paths = List.length paths > 0 && List.for_all (path_intact g ~n) paths

(* Dirtiness: does any stored path touch a vertex invalidated by this
   epoch's diff (an endpoint of a removed edge, or a retired id)? *)
let touches touched paths =
  List.exists (List.exists (fun v -> v >= Array.length touched || touched.(v))) paths

(* Recompute every certificate from scratch. Succeeds (arming the
   cache) iff every probe yields k paths — by the hub argument below
   this certifies κ(g) ≥ k, which is exactly when a verified graph can
   arm the cache. *)
let rebuild t ~graph:g =
  let n = Graph.n g in
  if n <= t.k then (
    t.armed <- false;
    false)
  else begin
    let fans = Array.make n [] in
    let pairs = Array.make (pair_count t.k) [] in
    let ok = ref true in
    let pr = Connectivity.probe (Csr.of_graph g) in
    iter_hub_pairs t.k (fun p i j ->
        if !ok then begin
          let paths = Connectivity.pair_paths pr ~k:t.k i j in
          if List.length paths >= t.k then pairs.(p) <- paths else ok := false
        end);
    let u = ref t.k in
    while !ok && !u < n do
      let paths = Connectivity.fan_paths pr ~k:t.k !u in
      if List.length paths >= t.k then fans.(!u) <- paths else ok := false;
      incr u
    done;
    t.n <- n;
    t.fans <- fans;
    t.pairs <- pairs;
    t.armed <- !ok;
    !ok
  end

let check t ~graph:g ~removed =
  if not t.armed then invalid_arg "Cert.check: cache not armed";
  let n = Graph.n g in
  let n_old = t.n in
  let touched = Array.make (max n n_old) false in
  List.iter
    (fun (u, v) ->
      if u < Array.length touched then touched.(u) <- true;
      if v < Array.length touched then touched.(v) <- true)
    removed;
  for v = n to n_old - 1 do
    touched.(v) <- true
  done;
  let csr = lazy (Csr.of_graph g) in
  let pr = lazy (Connectivity.probe (Lazy.force csr)) in
  let reused = ref 0 and revalidated = ref 0 and recomputed = ref 0 in
  let conn_ok = ref true in
  let refresh stored recompute =
    (* three tiers: untouched certificates are served as-is; touched
       ones are re-walked against the live graph (O(path length)); only
       walks that fail pay a flow probe. *)
    if not (touches touched stored) then begin
      incr reused;
      Some stored
    end
    else if fan_intact g ~n stored then begin
      incr revalidated;
      Some stored
    end
    else begin
      incr recomputed;
      let paths = recompute () in
      if List.length paths >= t.k then Some paths else None
    end
  in
  let pairs = Array.make (pair_count t.k) [] in
  iter_hub_pairs t.k (fun p i j ->
      if !conn_ok then
        match refresh t.pairs.(p) (fun () -> Connectivity.pair_paths (Lazy.force pr) ~k:t.k i j) with
        | Some paths -> pairs.(p) <- paths
        | None -> conn_ok := false);
  let fans = Array.make (max n 1) [] in
  let u = ref t.k in
  while !conn_ok && !u < n do
    let stored = if !u < n_old then t.fans.(!u) else [] in
    (if !u >= n_old then begin
       (* a vertex admitted this epoch: no stored certificate yet *)
       incr recomputed;
       let paths = Connectivity.fan_paths (Lazy.force pr) ~k:t.k !u in
       if List.length paths >= t.k then fans.(!u) <- paths else conn_ok := false
     end
     else
       match refresh stored (fun () -> Connectivity.fan_paths (Lazy.force pr) ~k:t.k !u) with
       | Some paths -> fans.(!u) <- paths
       | None -> conn_ok := false);
    incr u
  done;
  if !conn_ok then begin
    t.n <- n;
    t.fans <- fans;
    t.pairs <- pairs
  end
  else t.armed <- false;
  {
    connectivity_ok = !conn_ok;
    diameter_ok =
      !conn_ok
      && Paths.diameter_at_most_csr (Lazy.force csr) ~bound:(Verify.diameter_bound ~n ~k:t.k);
    reused = !reused;
    revalidated = !revalidated;
    recomputed = !recomputed;
  }
