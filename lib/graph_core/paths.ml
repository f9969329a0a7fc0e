(* Every aggregate here is a sweep of BFS passes over a fixed topology
   (the bound cover at the end is a short run of them), so each entry
   point snapshots the graph to CSR once and reuses one BFS workspace
   across all sources — zero per-source allocation. With
   [?pool] the per-source passes fan out across domains (the snapshot
   is immutable, so sharing it is free) with one workspace per domain;
   results are identical to the sequential sweep at any domain count. *)

let check_mask_csr csr alive =
  match alive with
  | None -> ()
  | Some a ->
      if Array.length a <> Csr.n csr then invalid_arg "Paths: alive mask has wrong length"

let live_fun alive =
  match alive with None -> fun _ -> true | Some a -> fun v -> a.(v)

(* Eccentricity from the first [nv] BFS distances: max finite distance
   over live vertices, or None when some live vertex is unreachable. *)
let ecc_of_dist ?alive nv dist =
  let live = live_fun alive in
  let ecc = ref 0 and complete = ref true in
  for v = 0 to nv - 1 do
    if live v then begin
      let d = dist.(v) in
      if d < 0 then complete := false else if d > !ecc then ecc := d
    end
  done;
  if !complete then Some !ecc else None

let ecc_of_run ws ?alive csr ~src =
  ecc_of_dist ?alive (Csr.n csr) (Bfs.csr_distances_into ws ?alive csr ~src)

let use_pool pool n =
  match pool with Some p when Par.Pool.size p > 1 && n > 1 -> Some p | _ -> None

let eccentricities_csr ?pool ?alive csr =
  check_mask_csr csr alive;
  let live = live_fun alive in
  let nv = Csr.n csr in
  match use_pool pool nv with
  | Some p ->
      let wss = Array.init (Par.Pool.size p) (fun _ -> Bfs.Workspace.create ()) in
      let out = Array.make nv None in
      Par.Pool.parallel_for p ~lo:0 ~hi:nv (fun ~worker v ->
          if live v then out.(v) <- ecc_of_run wss.(worker) ?alive csr ~src:v);
      out
  | None ->
      let ws = Bfs.Workspace.create () in
      Array.init nv (fun v -> if live v then ecc_of_run ws ?alive csr ~src:v else None)

let eccentricities ?pool ?alive g = eccentricities_csr ?pool ?alive (Csr.of_graph g)

(* Fold alive vertices' eccentricities with [f]; None when the graph is
   empty or some alive vertex has undefined (infinite) eccentricity. *)
let fold_ecc_csr ?pool ?alive csr f =
  check_mask_csr csr alive;
  let live = live_fun alive in
  let nv = Csr.n csr in
  match use_pool pool nv with
  | Some p ->
      let wss = Array.init (Par.Pool.size p) (fun _ -> Bfs.Workspace.create ()) in
      (* Disconnection anywhere forces the overall None, so the flag
         only ever goes false — scheduling order cannot change the
         result, it only saves work after the verdict is known. *)
      let connected = Atomic.make true in
      let join a b =
        match (a, b) with None, x | x, None -> x | Some a, Some b -> Some (f a b)
      in
      let best =
        Par.Pool.parallel_fold p ~lo:0 ~hi:nv ~init:None
          ~body:(fun ~worker v acc ->
            if (not (Atomic.get connected)) || not (live v) then acc
            else
              match ecc_of_run wss.(worker) ?alive csr ~src:v with
              | None ->
                  Atomic.set connected false;
                  acc
              | Some e -> join acc (Some e))
          ~combine:join
      in
      if Atomic.get connected then best else None
  | None ->
      let ws = Bfs.Workspace.create () in
      let best = ref None and ok = ref true in
      let v = ref 0 in
      while !ok && !v < nv do
        if live !v then begin
          match ecc_of_run ws ?alive csr ~src:!v with
          | None -> ok := false
          | Some e -> best := Some (match !best with None -> e | Some b -> f b e)
        end;
        incr v
      done;
      if !ok then !best else None

let diameter_csr ?pool ?alive csr = fold_ecc_csr ?pool ?alive csr max

let radius_csr ?pool ?alive csr = fold_ecc_csr ?pool ?alive csr min

(* The eccentricity-bound cover: ub(w) ≥ ecc(w) holds throughout, by
   d(w, x) ≤ d(w, v) + d(v, x). A source's own bound becomes its exact
   eccentricity, so while the largest bound exceeds [bound] it belongs
   to a vertex not yet searched, and the cover ends within n passes. *)
let diameter_at_most_csr csr ~bound =
  let nv = Csr.n csr in
  let ws = Bfs.Workspace.create () in
  let ub = Array.make nv max_int in
  let rec cover v =
    let dist = Bfs.csr_distances_into ws csr ~src:v in
    match ecc_of_dist nv dist with
    | None -> false
    | Some e when e > bound -> false
    | Some e ->
        (* tighten every bound and pick the largest, ties to the lowest id *)
        let next = ref 0 in
        for w = 0 to nv - 1 do
          let b = e + dist.(w) in
          if b < ub.(w) then ub.(w) <- b;
          if ub.(w) > ub.(!next) then next := w
        done;
        ub.(!next) <= bound || cover !next
  in
  nv > 0 && cover 0

let diameter ?pool ?alive g = diameter_csr ?pool ?alive (Csr.of_graph g)

let radius ?pool ?alive g = radius_csr ?pool ?alive (Csr.of_graph g)

let average_path_length ?alive g =
  let csr = Csr.of_graph g in
  check_mask_csr csr alive;
  let nv = Csr.n csr in
  let live = live_fun alive in
  let ws = Bfs.Workspace.create () in
  let total = ref 0 and pairs = ref 0 and ok = ref true in
  for src = 0 to nv - 1 do
    if !ok && live src then begin
      let dist = Bfs.csr_distances_into ws ?alive csr ~src in
      for v = 0 to nv - 1 do
        if live v && v <> src then begin
          let d = dist.(v) in
          if d < 0 then ok := false
          else begin
            total := !total + d;
            incr pairs
          end
        end
      done
    end
  done;
  if !ok && !pairs > 0 then Some (float_of_int !total /. float_of_int !pairs) else None

let diameter_lower_bound g ~seeds =
  if seeds = [] then invalid_arg "Paths.diameter_lower_bound: empty seeds";
  let csr = Csr.of_graph g in
  let ws = Bfs.Workspace.create () in
  List.fold_left
    (fun acc s ->
      match ecc_of_run ws csr ~src:s with
      | Some e -> max acc e
      | None -> invalid_arg "Paths.diameter_lower_bound: graph is disconnected")
    0 seeds
