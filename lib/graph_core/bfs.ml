module Workspace = struct
  (* Arrays are grown to the largest graph seen and never shrunk; only
     the first [Csr.n csr] entries are meaningful after a run. *)
  type t = { mutable dist : int array; mutable parent : int array; mutable queue : int array }

  let create () = { dist = [||]; parent = [||]; queue = [||] }

  let ensure ws nv =
    if Array.length ws.dist < nv then begin
      ws.dist <- Array.make nv (-1);
      ws.parent <- Array.make nv (-1);
      ws.queue <- Array.make nv 0
    end
end

let check_alive g alive =
  match alive with
  | None -> fun _ -> true
  | Some a ->
      if Array.length a <> Graph.n g then invalid_arg "Bfs: alive mask has wrong length";
      fun v -> a.(v)

let distances_and_parents ?alive g ~src =
  let nv = Graph.n g in
  let live = check_alive g alive in
  if src < 0 || src >= nv then invalid_arg "Bfs: source out of range";
  if not (live src) then invalid_arg "Bfs: source is not alive";
  let dist = Array.make nv (-1) in
  let parent = Array.make nv (-1) in
  let q = Queue.create () in
  dist.(src) <- 0;
  Queue.add src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Graph.iter_neighbors g u (fun v ->
        if live v && dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          parent.(v) <- u;
          Queue.add v q
        end)
  done;
  (dist, parent)

let distances ?alive g ~src = fst (distances_and_parents ?alive g ~src)

let path ?alive g ~src ~dst =
  let dist, parent = distances_and_parents ?alive g ~src in
  if dst < 0 || dst >= Graph.n g then invalid_arg "Bfs.path: dst out of range";
  if dist.(dst) < 0 then None
  else begin
    let rec build v acc = if v = src then src :: acc else build parent.(v) (v :: acc) in
    Some (build dst [])
  end

let eccentricity ?alive g ~src =
  let live = check_alive g alive in
  let dist = distances ?alive g ~src in
  let ecc = ref 0 and complete = ref true in
  Array.iteri
    (fun v d ->
      if live v then if d < 0 then complete := false else if d > !ecc then ecc := d)
    dist;
  if !complete then Some !ecc else None

let reachable_count ?alive g ~src =
  let dist = distances ?alive g ~src in
  Array.fold_left (fun acc d -> if d >= 0 then acc + 1 else acc) 0 dist

(* CSR fast path: flat arrays, an int queue with head/tail cursors (BFS
   enqueues each vertex at most once, so no wrap-around is needed), and
   no per-visit closure in the common no-mask case. *)

let csr_run ws ?alive csr ~src =
  let nv = Csr.n csr in
  (match alive with
  | Some a when Array.length a <> nv -> invalid_arg "Bfs: alive mask has wrong length"
  | _ -> ());
  if src < 0 || src >= nv then invalid_arg "Bfs: source out of range";
  (match alive with
  | Some a when not a.(src) -> invalid_arg "Bfs: source is not alive"
  | _ -> ());
  Workspace.ensure ws nv;
  let dist = ws.Workspace.dist and parent = ws.Workspace.parent and queue = ws.Workspace.queue in
  Array.fill dist 0 nv (-1);
  Array.fill parent 0 nv (-1);
  let head = ref 0 and tail = ref 1 in
  dist.(src) <- 0;
  queue.(0) <- src;
  let off = Csr.offsets csr and nbr = Csr.neighbor_array csr in
  (* the loop is written out once per mask case so the hot path reads
     its arrays without per-visit dispatch or closures *)
  match alive with
  | None ->
      while !head < !tail do
        let u = queue.(!head) in
        incr head;
        let du1 = dist.(u) + 1 in
        for i = Bigarray.Array1.unsafe_get off u to Bigarray.Array1.unsafe_get off (u + 1) - 1 do
          let v = Bigarray.Array1.unsafe_get nbr i in
          if dist.(v) < 0 then begin
            dist.(v) <- du1;
            parent.(v) <- u;
            queue.(!tail) <- v;
            incr tail
          end
        done
      done
  | Some a ->
      while !head < !tail do
        let u = queue.(!head) in
        incr head;
        let du1 = dist.(u) + 1 in
        for i = Bigarray.Array1.unsafe_get off u to Bigarray.Array1.unsafe_get off (u + 1) - 1 do
          let v = Bigarray.Array1.unsafe_get nbr i in
          if dist.(v) < 0 && a.(v) then begin
            dist.(v) <- du1;
            parent.(v) <- u;
            queue.(!tail) <- v;
            incr tail
          end
        done
      done

let csr_distances_into ws ?alive csr ~src =
  csr_run ws ?alive csr ~src;
  ws.Workspace.dist

let csr_distances ?alive csr ~src =
  (* A fresh workspace is sized exactly to the graph, so its arrays can
     be handed out directly. *)
  let ws = Workspace.create () in
  csr_run ws ?alive csr ~src;
  ws.Workspace.dist

let csr_distances_and_parents ?alive csr ~src =
  let ws = Workspace.create () in
  csr_run ws ?alive csr ~src;
  (ws.Workspace.dist, ws.Workspace.parent)
