(* Edge-disjoint spanning-tree packing over a frozen CSR snapshot.

   Phase 1 is greedy: the trees BFS outward from the source in
   lockstep — source edges dealt round-robin, one frontier layer per
   tree per round, claims gated by a degree reservation that keeps one
   entry edge free per tree still to come at every vertex. On the
   structured LHG families this seeds every tree with a short, wide
   core but stalls partway (the reservation is a heuristic, not a
   matroid rank bound). Phase 2 finishes exactly: a matroid-union
   augmenting search over the exchange graph of edges (insert an
   unowned edge into some forest, cascading swaps along a shortest
   alternating path), which reaches the Nash-Williams/Tutte optimum —
   so whenever ⌊k/2⌋ disjoint spanning trees exist, they are found.
   One union-find pass over the edges makes every insertion that needs
   no swap, the forests are rooted once in O(count·n + m), and each
   remaining augmenting path costs a search that stops at its first
   hit plus a re-hang of only the forest pieces it moved (see
   [complete]).

   Packing can be masked: an optional membership mask restricts the
   span to a vertex subset and an optional usability predicate vetoes
   individual edges, so the same CSR snapshot (e.g. the union topology
   of a whole churn trace) hosts packs for every epoch's live
   subgraph. [patch] re-stripes an existing pack after a mask change
   without starting the search over: it drops the invalidated tree
   edges, greedily reconnects each tree's components through
   still-unowned usable edges, and when greedy stalls finishes with
   the same augmenting search seeded from the surviving assignment, so
   [None] (caller re-packs, possibly backing the count off) only means
   the count is no longer feasible under the new masks. *)

type t = {
  source : int;
  count : int;
  n : int;
  members : int;  (** vertices each tree spans ([n] for an unmasked pack) *)
  parent : int array;  (** [count * n]; [parent.(t*n + v)], -1 at the source and off-mask *)
  depth : int array;  (** [count * n]; hops from the source in tree [t] *)
  child_off : int array;  (** [count * (n+1)]; children of [v] in tree [t] *)
  child : int array;  (** [count * (members-1)] child vertices, ascending per node *)
  child_eidx : int array;  (** CSR slot of (node → child), parallel to [child] *)
  max_depths : int array;  (** per tree *)
}

let source t = t.source

let count t = t.count

let n t = t.n

let members t = t.members

(* the flat arrays would silently read another tree's slot for an
   out-of-range vertex, so every accessor checks its indices *)
let check_tree fn t tree =
  if tree < 0 || tree >= t.count then invalid_arg ("Tree_pack." ^ fn ^ ": tree out of range")

let check_vertex fn t tree v =
  check_tree fn t tree;
  if v < 0 || v >= t.n then invalid_arg ("Tree_pack." ^ fn ^ ": vertex out of range")

let parent t ~tree v =
  check_vertex "parent" t tree v;
  t.parent.((tree * t.n) + v)

let depth t ~tree v =
  check_vertex "depth" t tree v;
  t.depth.((tree * t.n) + v)

let max_depth t ~tree =
  check_tree "max_depth" t tree;
  t.max_depths.(tree)

let iter_children t ~tree ~node f =
  check_vertex "iter_children" t tree node;
  let base = tree * (t.n + 1) in
  for i = t.child_off.(base + node) to t.child_off.(base + node + 1) - 1 do
    f ~child:t.child.(i) ~eidx:t.child_eidx.(i)
  done

let edges t ~tree =
  check_tree "edges" t tree;
  let acc = ref [] in
  for v = t.n - 1 downto 0 do
    let p = t.parent.((tree * t.n) + v) in
    if p >= 0 then acc := (p, v) :: !acc
  done;
  !acc

let min_degree csr =
  let n = Csr.n csr in
  if n = 0 then 0
  else begin
    let md = ref max_int in
    for v = 0 to n - 1 do
      let d = Csr.degree csr v in
      if d < !md then md := d
    done;
    !md
  end

let default_count csr = max 1 (min_degree csr / 2)

(* undirected edge endpoints and the slot→edge-id map — the shared
   setup of [pack] and [patch] *)
let edge_arrays csr =
  let m = Csr.m csr in
  let eu = Array.make (max 1 m) 0 and ev = Array.make (max 1 m) 0 in
  let i = ref 0 in
  Csr.iter_edges csr (fun u v ->
      eu.(!i) <- u;
      ev.(!i) <- v;
      incr i);
  let eu = Array.sub eu 0 m and ev = Array.sub ev 0 m in
  let und_of_slot = Array.make (Csr.degree_sum csr) 0 in
  for e = 0 to m - 1 do
    und_of_slot.(Csr.edge_index csr eu.(e) ev.(e)) <- e;
    und_of_slot.(Csr.edge_index csr ev.(e) eu.(e)) <- e
  done;
  (eu, ev, und_of_slot)

(* per-undirected-edge claimability under the masks: both endpoints
   member and both directed slots pass the usability predicate *)
let allowed_of csr ~member ~usable ~eu ~ev =
  let m = Array.length eu in
  let allowed = Array.make m true in
  (match member with
  | None -> ()
  | Some mem ->
      for e = 0 to m - 1 do
        if not (mem.(eu.(e)) && mem.(ev.(e))) then allowed.(e) <- false
      done);
  (match usable with
  | None -> ()
  | Some f ->
      for e = 0 to m - 1 do
        if
          allowed.(e)
          && not (f (Csr.edge_index csr eu.(e) ev.(e)) && f (Csr.edge_index csr ev.(e) eu.(e)))
        then allowed.(e) <- false
      done);
  allowed

(* Orient each tree's owned edge set from the source — BFS over the
   owned adjacency, then the grouped-children layout. [None] unless
   every tree is a forest of exactly [members − 1] edges reaching all
   [members] masked vertices from the source: the spanning check of
   [attempt] and the validity check of [patch] in one place. *)
let orient csr ~source ~count ~members ~owner ~eu ~ev =
  let n = Csr.n csr in
  let m = Array.length eu in
  let target = count * (max 0 (members - 1)) in
  let sizes = Array.make count 0 in
  let adj_off = Array.make ((count * n) + 1) 0 in
  let ok = ref true in
  for e = 0 to m - 1 do
    let o = owner.(e) in
    if o >= 0 then begin
      sizes.(o) <- sizes.(o) + 1;
      let bu = (o * n) + eu.(e) and bv = (o * n) + ev.(e) in
      adj_off.(bu + 1) <- adj_off.(bu + 1) + 1;
      adj_off.(bv + 1) <- adj_off.(bv + 1) + 1
    end
  done;
  Array.iter (fun s -> if s <> members - 1 then ok := false) sizes;
  if not !ok then None
  else begin
    for i = 1 to count * n do
      adj_off.(i) <- adj_off.(i) + adj_off.(i - 1)
    done;
    let adj_v = Array.make (2 * max 1 target) 0 in
    let cursor = Array.make (count * n) 0 in
    Array.blit adj_off 0 cursor 0 (count * n);
    for e = 0 to m - 1 do
      let o = owner.(e) in
      if o >= 0 then begin
        let bu = (o * n) + eu.(e) and bv = (o * n) + ev.(e) in
        adj_v.(cursor.(bu)) <- ev.(e);
        cursor.(bu) <- cursor.(bu) + 1;
        adj_v.(cursor.(bv)) <- eu.(e);
        cursor.(bv) <- cursor.(bv) + 1
      end
    done;
    let parent = Array.make (count * n) (-1) in
    let depth = Array.make (count * n) 0 in
    let child_off = Array.make (count * (n + 1)) 0 in
    let child = Array.make (max 1 target) 0 in
    let child_eidx = Array.make (max 1 target) 0 in
    let max_depths = Array.make count 0 in
    let stamp = Array.make n (-1) in
    let queue = Array.make n 0 in
    for t = 0 to count - 1 do
      if !ok then begin
        let base = t * n in
        let reached = ref 1 in
        stamp.(source) <- t;
        let head = ref 0 and tail = ref 0 in
        queue.(!tail) <- source;
        incr tail;
        parent.(base + source) <- -1;
        depth.(base + source) <- 0;
        let maxd = ref 0 in
        while !head < !tail do
          let u = queue.(!head) in
          incr head;
          for i = adj_off.(base + u) to adj_off.(base + u + 1) - 1 do
            let v = adj_v.(i) in
            if stamp.(v) <> t then begin
              stamp.(v) <- t;
              parent.(base + v) <- u;
              depth.(base + v) <- depth.(base + u) + 1;
              if depth.(base + v) > !maxd then maxd := depth.(base + v);
              incr reached;
              queue.(!tail) <- v;
              incr tail
            end
          done
        done;
        max_depths.(t) <- !maxd;
        if !reached <> members then ok := false
      end
    done;
    if not !ok then None
    else begin
      (* children grouped per node, filled in ascending child order *)
      for t = 0 to count - 1 do
        let obase = t * (n + 1) in
        for v = 0 to n - 1 do
          let p = parent.((t * n) + v) in
          if p >= 0 then child_off.(obase + p + 1) <- child_off.(obase + p + 1) + 1
        done;
        child_off.(obase) <- t * (max 0 (members - 1));
        for v = 1 to n do
          child_off.(obase + v) <- child_off.(obase + v) + child_off.(obase + v - 1)
        done
      done;
      let fill = Array.copy child_off in
      for t = 0 to count - 1 do
        let obase = t * (n + 1) in
        for v = 0 to n - 1 do
          let p = parent.((t * n) + v) in
          if p >= 0 then begin
            let pos = fill.(obase + p) in
            child.(pos) <- v;
            child_eidx.(pos) <- Csr.edge_index csr p v;
            fill.(obase + p) <- pos + 1
          end
        done
      done;
      Some { source; count; n; members; parent; depth; child_off; child; child_eidx; max_depths }
    end
  end

(* Matroid-union completion: grow a partial owner assignment — each
   tree's owned edge set a forest over the member vertices — one
   shortest augmenting path at a time (insert an unowned edge into
   some forest, cascading swaps along the exchange graph) until the
   trees own [target = count * (members − 1)] edges in total. Every
   allowed edge joins at most [members] vertices' worth of forest, so
   hitting the total forces each tree to exactly members − 1 edges.
   Reaches the Nash-Williams/Tutte optimum from any forest-valid seed;
   [false] means [count] disjoint spanning trees do not exist. Scan
   orders are fixed (edges ascending, trees ascending), so the result
   is deterministic in the seed assignment.

   The search is breadth-first from the unowned edges, ascending, and
   returns the first edge in queue order that joins two components of
   some forest other than its own (the lowest such forest). Three
   facts make it incremental without changing a single choice:
   - while a direct insertion (a path of length one) exists, the
     search returns the smallest unowned edge that has one, into its
     lowest possible forest, and a longer path never re-enables one —
     the unowned set only shrinks, and only the goal forest's vertex
     partition changes, by one merge. So one ascending union-find pass
     does every direct insertion up front;
   - each forest is rooted at its components' smallest vertices (the
     ascending root scan of [rebuild_forests]), which makes its
     parent/depth arrays a function of its edge set alone. After a
     path, re-hanging the subtree below every removed edge, plus the
     goal forest's merged component with the larger root, reproduces a
     full rebuild, so [rebuild_forests] runs once;
   - the forests do not change during a search, so testing each edge
     for insertion as it is enqueued finds the same goal with the same
     predecessor chain, and the search stops there. *)
let complete csr ~count ~eu ~ev ~und_of_slot ~owner ~owned ~target =
  let n = Csr.n csr in
  let m = Array.length eu in
  let off = Csr.offsets csr and nbr = Csr.neighbor_array csr in
  let owned = ref owned in
  (* forest [t] keeps vertex [v] at [t * n + v]; until the forests are
     rooted, [comp] is a union-find parent array *)
  let comp = Array.init (count * n) Fun.id in
  let rec find x =
    let p = comp.(x) in
    if p = x then x
    else begin
      comp.(x) <- comp.(p);
      find comp.(x)
    end
  in
  for e = 0 to m - 1 do
    let o = owner.(e) in
    if o >= 0 then comp.(find ((o * n) + eu.(e))) <- find ((o * n) + ev.(e))
  done;
  (* every direct insertion, in the order the search would take them *)
  let e = ref 0 in
  while !owned < target && !e < m do
    if owner.(!e) = -1 then begin
      let t = ref 0 in
      while !t < count do
        let ru = find ((!t * n) + eu.(!e)) and rv = find ((!t * n) + ev.(!e)) in
        if ru <> rv then begin
          comp.(ru) <- rv;
          owner.(!e) <- !t;
          incr owned;
          t := count
        end
        else incr t
      done
    end;
    incr e
  done;
  if !owned >= target then true
  else begin
    let fparent = Array.make (count * n) (-1) in
    let fpedge = Array.make (count * n) (-1) in
    let fdepth = Array.make (count * n) 0 in
    (* a vertex whose place in its forest is being recomputed has stamp
       [pending], [pending + 1] once hung; lower stamps are settled *)
    let stamp = Array.make (count * n) 0 in
    let pending = ref 0 in
    let queue = Array.make (max 1 n) 0 in
    let hang_under base v u f =
      stamp.(base + v) <- !pending + 1;
      comp.(base + v) <- comp.(base + u);
      fparent.(base + v) <- u;
      fpedge.(base + v) <- f;
      fdepth.(base + v) <- fdepth.(base + u) + 1
    in
    (* BFS below [root] over forest [t]'s edges, hanging every pending
       vertex it reaches *)
    let hang t root =
      let base = t * n in
      let head = ref 0 and tail = ref 1 in
      queue.(0) <- root;
      while !head < !tail do
        let u = queue.(!head) in
        incr head;
        for i = off.{u} to off.{u + 1} - 1 do
          let f = und_of_slot.(i) and w = nbr.{i} in
          if owner.(f) = t && stamp.(base + w) = !pending then begin
            hang_under base w u f;
            queue.(!tail) <- w;
            incr tail
          end
        done
      done
    in
    let rebuild_forests () =
      for t = 0 to count - 1 do
        let base = t * n in
        for root = 0 to n - 1 do
          if stamp.(base + root) = !pending then begin
            stamp.(base + root) <- !pending + 1;
            comp.(base + root) <- root;
            fparent.(base + root) <- -1;
            fpedge.(base + root) <- -1;
            fdepth.(base + root) <- 0;
            hang t root
          end
        done
      done
    in
    rebuild_forests ();
    (* [detached] lists the pending slots of one path's update *)
    let detached = Array.make (count * n) 0 in
    let ndetached = ref 0 in
    (* mark [top] and its subtree in forest [t] pending; a child is the
       neighbour whose parent edge is the shared edge *)
    let detach t top =
      let base = t * n in
      if stamp.(base + top) < !pending then begin
        stamp.(base + top) <- !pending;
        detached.(!ndetached) <- base + top;
        let j = ref !ndetached in
        incr ndetached;
        while !j < !ndetached do
          let u = detached.(!j) - base in
          incr j;
          for i = off.{u} to off.{u + 1} - 1 do
            let w = nbr.{i} in
            if fpedge.(base + w) = und_of_slot.(i) && stamp.(base + w) < !pending then begin
              stamp.(base + w) <- !pending;
              detached.(!ndetached) <- base + w;
              incr ndetached
            end
          done
        done
      end
    in
    (* each pending piece meets the settled rest of its component in
       exactly one forest edge: hang the piece from there *)
    let rehang () =
      for j = 0 to !ndetached - 1 do
        let x = detached.(j) in
        if stamp.(x) = !pending then begin
          let t = x / n and v = x mod n in
          let base = t * n in
          for i = off.{v} to off.{v + 1} - 1 do
            let f = und_of_slot.(i) and w = nbr.{i} in
            if owner.(f) = t && stamp.(base + w) < !pending then hang_under base v w f
          done;
          if stamp.(x) > !pending then hang t v
        end
      done
    in
    (* lowest forest other than its own that [f] would join two
       components of, or -1 *)
    let insertable f =
      let hit = ref (-1) and t = ref 0 in
      while !hit < 0 && !t < count do
        if !t <> owner.(f) && comp.((!t * n) + eu.(f)) <> comp.((!t * n) + ev.(f)) then hit := !t;
        incr t
      done;
      !hit
    in
    (* the search queue starts with the unowned edges, ascending; they
       stay at its head from one search to the next *)
    let equeue = Array.make (max 1 m) 0 in
    let nseeds = ref 0 in
    for e = 0 to m - 1 do
      if owner.(e) = -1 then begin
        equeue.(!nseeds) <- e;
        incr nseeds
      end
    done;
    let pred = Array.make (max 1 m) (-1) in
    let seen = Array.make (max 1 m) 0 in
    let search = ref 0 in
    let augment () =
      incr search;
      let head = ref 0 and tail = ref !nseeds in
      let goal = ref (-1) and goal_tree = ref (-1) in
      while !goal < 0 && !head < !tail do
        let e = equeue.(!head) in
        incr head;
        (* [e] joins no two components of another forest, so its
           endpoints are linked in each: enqueue that tree path *)
        let t = ref 0 in
        while !goal < 0 && !t < count do
          if !t <> owner.(e) then begin
            let base = !t * n in
            let a = ref eu.(e) and b = ref ev.(e) in
            while !goal < 0 && !a <> !b do
              let x = if fdepth.(base + !a) >= fdepth.(base + !b) then a else b in
              let f = fpedge.(base + !x) in
              x := fparent.(base + !x);
              if seen.(f) <> !search then begin
                seen.(f) <- !search;
                pred.(f) <- e;
                equeue.(!tail) <- f;
                incr tail;
                let h = insertable f in
                if h >= 0 then begin
                  goal := f;
                  goal_tree := h
                end
              end
            done
          end;
          incr t
        done
      done;
      if !goal < 0 then false
      else begin
        (* cascade the swaps back along the shortest alternating path,
           detaching the old subtree below every edge a forest loses,
           then the goal forest's component with the larger root *)
        pending := !pending + 2;
        ndetached := 0;
        let cur = ref !goal and give = ref !goal_tree and seed = ref (-1) in
        while !seed < 0 do
          let old = owner.(!cur) in
          owner.(!cur) <- !give;
          if old < 0 then seed := !cur
          else begin
            let u = eu.(!cur) in
            detach old (if fpedge.((old * n) + u) = !cur then u else ev.(!cur));
            give := old;
            cur := pred.(!cur)
          end
        done;
        let gbase = !goal_tree * n in
        detach !goal_tree (max comp.(gbase + eu.(!goal)) comp.(gbase + ev.(!goal)));
        rehang ();
        let i = ref 0 in
        while equeue.(!i) <> !seed do
          incr i
        done;
        Array.blit equeue (!i + 1) equeue !i (!nseeds - !i - 1);
        decr nseeds;
        incr owned;
        true
      end
    in
    let feasible = ref true in
    while !feasible && !owned < target do
      if not (augment ()) then feasible := false
    done;
    !feasible
  end

(* One packing attempt at a fixed tree count; [None] when the union of
   forests cannot reach count spanning trees (then the caller retries
   with one tree fewer). [eu]/[ev] are the undirected edge endpoints,
   [und_of_slot] maps each directed CSR slot to its undirected edge id.
   [allowed] vetoes masked-out edges (owner −2: never claimed, never
   seeded into the augmenting search); [members] counts the masked
   vertices each tree must span. *)
let attempt csr ~source ~count ~eu ~ev ~und_of_slot ~allowed ~members =
  let n = Csr.n csr in
  let m = Array.length eu in
  let off = Csr.offsets csr and nbr = Csr.neighbor_array csr in
  let owner = Array.init m (fun e -> if allowed.(e) then -1 else -2) in
  let owned = ref 0 in
  let target = count * (max 0 (members - 1)) in
  (* Phase 1: BFS-layered greedy packing. The trees grow in lockstep —
     each round every tree expands its whole frontier by one layer over
     still-unowned edges — so no tree hogs the short edges: depths stay
     near count × eccentricity instead of one shallow tree starving the
     rest into long detours. A tree whose frontier empties before
     spanning just stalls; phase 2 repairs it exactly. *)
  let visited = Array.make (count * n) false in
  let frontier = Array.init count (fun _ -> Array.make n 0) in
  let fsize = Array.make count 0 in
  let next = Array.make n 0 in
  (* Degree reservation: [entered.(v)] trees have reached v so far and
     [free_deg.(v)] of its claimable edges are unowned. A claim must
     leave every endpoint at least [count - entered] free edges — one
     entry path per tree still to come — or a wave would capture a
     whole low-degree star (the hub pattern in kdiamond) and cut the
     other trees off. *)
  let free_deg = Array.make n 0 in
  for e = 0 to m - 1 do
    if allowed.(e) then begin
      free_deg.(eu.(e)) <- free_deg.(eu.(e)) + 1;
      free_deg.(ev.(e)) <- free_deg.(ev.(e)) + 1
    end
  done;
  let entered = Array.make n 0 in
  entered.(source) <- count;
  for t = 0 to count - 1 do
    visited.((t * n) + source) <- true
  done;
  let claim_ok u v =
    free_deg.(u) - 1 >= count - entered.(u) && free_deg.(v) - 1 >= count - (entered.(v) + 1)
  in
  let do_claim t e u v =
    owner.(e) <- t;
    incr owned;
    free_deg.(u) <- free_deg.(u) - 1;
    free_deg.(v) <- free_deg.(v) - 1;
    entered.(v) <- entered.(v) + 1;
    visited.((t * n) + v) <- true;
    frontier.(t).(fsize.(t)) <- v;
    fsize.(t) <- fsize.(t) + 1
  in
  (* the source's edges are the bottleneck every tree must pass
     through: deal them out round-robin before the waves start, or the
     first tree's layer-1 sweep would claim them all and starve the
     rest at birth *)
  let deal = ref 0 in
  for i = off.{source} to off.{source + 1} - 1 do
    let v = nbr.{i} in
    let e = und_of_slot.(i) in
    if owner.(e) = -1 && claim_ok source v then begin
      let t = !deal mod count in
      incr deal;
      do_claim t e source v
    end
  done;
  let progress = ref true in
  while !progress do
    progress := false;
    for t = 0 to count - 1 do
      let base = t * n in
      let flen = fsize.(t) in
      if flen > 0 then begin
        Array.blit frontier.(t) 0 next 0 flen;
        fsize.(t) <- 0;
        for fi = 0 to flen - 1 do
          let u = next.(fi) in
          for i = off.{u} to off.{u + 1} - 1 do
            let v = nbr.{i} in
            let e = und_of_slot.(i) in
            if owner.(e) = -1 && (not visited.(base + v)) && claim_ok u v then do_claim t e u v
          done
        done;
        if fsize.(t) > 0 then progress := true
      end
    done
  done;
  (* phase 2: matroid-union augmentation until every forest spans *)
  if not (complete csr ~count ~eu ~ev ~und_of_slot ~owner ~owned:!owned ~target) then None
  else orient csr ~source ~count ~members ~owner ~eu ~ev

let members_of ~n ~member =
  match member with
  | None -> n
  | Some mem ->
      let c = ref 0 in
      Array.iter (fun b -> if b then incr c) mem;
      !c

let pack ?count ?member ?usable csr ~source =
  let n = Csr.n csr in
  if n = 0 then invalid_arg "Tree_pack.pack: empty graph";
  if source < 0 || source >= n then invalid_arg "Tree_pack.pack: source out of range";
  (match member with
  | Some mem when Array.length mem <> n -> invalid_arg "Tree_pack.pack: member mask length"
  | Some mem when not mem.(source) -> invalid_arg "Tree_pack.pack: source is not a member"
  | _ -> ());
  let requested = match count with Some c -> c | None -> default_count csr in
  if requested < 1 then invalid_arg "Tree_pack.pack: count must be >= 1";
  let eu, ev, und_of_slot = edge_arrays csr in
  let allowed = allowed_of csr ~member ~usable ~eu ~ev in
  let members = members_of ~n ~member in
  let rec go c =
    match attempt csr ~source ~count:c ~eu ~ev ~und_of_slot ~allowed ~members with
    | Some t -> t
    | None ->
        if c <= 1 then invalid_arg "Tree_pack.pack: graph is not connected"
        else go (c - 1)
  in
  go requested

let pack_all ?pool ?count ?member ?usable csr ~sources =
  let srcs = Array.of_list sources in
  let len = Array.length srcs in
  let out = Array.make len None in
  let work i = out.(i) <- Some (pack ?count ?member ?usable csr ~source:srcs.(i)) in
  (match pool with
  | Some p when len > 1 -> Par.Pool.parallel_for ~chunk:1 p ~lo:0 ~hi:len (fun ~worker:_ i -> work i)
  | _ ->
      for i = 0 to len - 1 do
        work i
      done);
  Array.map
    (function Some t -> t | None -> assert false (* parallel_for covered every index *))
    out

(* Incremental re-stripe after a mask change, on the same CSR snapshot
   the pack was built over. The edge-set view makes this simple: each
   tree is members−1 owned undirected edges; drop the ones the new
   masks invalidate, then reconnect each tree's broken components
   greedily (scan unreached members in ascending order, claim the
   first still-unowned allowed edge from their component into the
   source component), and re-orient by BFS. Claims go through the
   shared owner array, so edge-disjointness is structural; every loop
   walks ascending vertex/slot order, so the result is deterministic.
   When free edges are too scarce for greedy — at count = ⌊k/2⌋ the
   trees own nearly every edge, so a leave can strand a component
   whose only ways back are owned elsewhere — [complete] finishes
   from the assignment built so far, one augmenting path per missing
   edge. [None] — caller falls back to a full [pack], which may also
   back the count off — therefore means the count is genuinely
   infeasible under the new masks. *)
let patch t csr ?member ?usable () =
  let n = Csr.n csr in
  if n <> t.n then invalid_arg "Tree_pack.patch: CSR size does not match the pack";
  (match member with
  | Some mem when Array.length mem <> n -> invalid_arg "Tree_pack.patch: member mask length"
  | Some mem when not mem.(t.source) -> invalid_arg "Tree_pack.patch: source is not a member"
  | _ -> ());
  let eu, ev, und_of_slot = edge_arrays csr in
  let m = Array.length eu in
  let allowed = allowed_of csr ~member ~usable ~eu ~ev in
  let members = members_of ~n ~member in
  let is_member v = match member with None -> true | Some mem -> mem.(v) in
  let owner = Array.init m (fun e -> if allowed.(e) then -1 else -2) in
  let dirty = Array.make t.count false in
  let ok = ref true in
  (* re-own the surviving tree edges; a dropped edge marks its tree *)
  for tree = 0 to t.count - 1 do
    let base = tree * n in
    for v = 0 to n - 1 do
      let p = t.parent.(base + v) in
      if p >= 0 then begin
        let e = und_of_slot.(Csr.edge_index csr p v) in
        if allowed.(e) then
          if owner.(e) = -1 then owner.(e) <- tree
          else (* another tree claimed it: the pack does not fit this CSR *)
            ok := false
        else dirty.(tree) <- true
      end
    done
  done;
  if not !ok then None
  else begin
    (* joins: a member the old pack did not span must enter every tree *)
    let was_spanned v = v = t.source || t.parent.(v) >= 0 in
    let joined = ref false in
    for v = 0 to n - 1 do
      if is_member v && not (was_spanned v) then joined := true
    done;
    if !joined then Array.fill dirty 0 t.count true;
    if members <> t.members && not (Array.exists Fun.id dirty) then
      (* a leaver whose edges were all already gone — trees must shrink *)
      Array.fill dirty 0 t.count true;
    if not (Array.exists Fun.id dirty) then Some t
    else begin
      let off = Csr.offsets csr and nbr = Csr.neighbor_array csr in
      let reached = Array.make n false in
      let cstamp = Array.make n (-1) in
      let pass_id = ref 0 in
      let comp_nodes = Array.make n 0 in
      let queue = Array.make n 0 in
      (* per-tree adjacency over currently owned edges, rebuilt per
         dirty tree (linear in m) *)
      let adj_off = Array.make (n + 1) 0 in
      let adj_v = Array.make (2 * max 1 (members - 1) * 2) 0 in
      let tree = ref 0 in
      while !ok && !tree < t.count do
        let tr = !tree in
        if dirty.(tr) then begin
          (* adjacency of tree [tr]'s surviving edges *)
          Array.fill adj_off 0 (n + 1) 0;
          let deg_total = ref 0 in
          for e = 0 to m - 1 do
            if owner.(e) = tr then begin
              adj_off.(eu.(e) + 1) <- adj_off.(eu.(e) + 1) + 1;
              adj_off.(ev.(e) + 1) <- adj_off.(ev.(e) + 1) + 1;
              deg_total := !deg_total + 2
            end
          done;
          for i = 1 to n do
            adj_off.(i) <- adj_off.(i) + adj_off.(i - 1)
          done;
          let adj_v =
            if !deg_total <= Array.length adj_v then adj_v else Array.make !deg_total 0
          in
          let cursor = Array.copy adj_off in
          for e = 0 to m - 1 do
            if owner.(e) = tr then begin
              adj_v.(cursor.(eu.(e))) <- ev.(e);
              cursor.(eu.(e)) <- cursor.(eu.(e)) + 1;
              adj_v.(cursor.(ev.(e))) <- eu.(e);
              cursor.(ev.(e)) <- cursor.(ev.(e)) + 1
            end
          done;
          (* the source component is the anchor *)
          Array.fill reached 0 n false;
          reached.(t.source) <- true;
          let head = ref 0 and tail = ref 0 in
          queue.(!tail) <- t.source;
          incr tail;
          while !head < !tail do
            let u = queue.(!head) in
            incr head;
            for i = adj_off.(u) to adj_off.(u + 1) - 1 do
              let v = adj_v.(i) in
              if not reached.(v) then begin
                reached.(v) <- true;
                queue.(!tail) <- v;
                incr tail
              end
            done
          done;
          (* reconnect: components can chain through each other (an
             attached component becomes the landing zone for the next),
             so sweep until a pass attaches nothing; [pass_id] makes
             component stamps per-pass, so a component that failed one
             pass is reconsidered on the next *)
          let progress = ref true in
          let remaining = ref 0 in
          for v = 0 to n - 1 do
            if is_member v && not reached.(v) then incr remaining
          done;
          while !progress && !remaining > 0 do
            progress := false;
            incr pass_id;
            let pass = !pass_id in
            for v = 0 to n - 1 do
              if is_member v && not reached.(v) && cstamp.(v) <> pass then begin
                (* collect v's component in BFS order *)
                let csize = ref 0 in
                cstamp.(v) <- pass;
                comp_nodes.(!csize) <- v;
                incr csize;
                let head = ref 0 in
                while !head < !csize do
                  let u = comp_nodes.(!head) in
                  incr head;
                  for i = adj_off.(u) to adj_off.(u + 1) - 1 do
                    let w = adj_v.(i) in
                    if cstamp.(w) <> pass && not reached.(w) then begin
                      cstamp.(w) <- pass;
                      comp_nodes.(!csize) <- w;
                      incr csize
                    end
                  done
                done;
                (* first free allowed edge from the component into the
                   reached set, component scanned in BFS order, each
                   node's slots ascending *)
                let found = ref false in
                let ci = ref 0 in
                while (not !found) && !ci < !csize do
                  let u = comp_nodes.(!ci) in
                  let i = ref off.{u} in
                  let hi = off.{u + 1} in
                  while (not !found) && !i < hi do
                    let w = nbr.{!i} in
                    let e = und_of_slot.(!i) in
                    if owner.(e) = -1 && reached.(w) then begin
                      owner.(e) <- tr;
                      found := true
                    end;
                    incr i
                  done;
                  incr ci
                done;
                if !found then begin
                  progress := true;
                  for i = 0 to !csize - 1 do
                    reached.(comp_nodes.(i)) <- true;
                    decr remaining
                  done
                end
              end
            done
          done;
          (* a still-stranded component (no free edge back into the
             reached set) is left for the augmenting completion below *)
        end;
        incr tree
      done;
      let target = t.count * (max 0 (members - 1)) in
      let owned = ref 0 in
      for e = 0 to m - 1 do
        if owner.(e) >= 0 then incr owned
      done;
      if
        !owned < target
        && not (complete csr ~count:t.count ~eu ~ev ~und_of_slot ~owner ~owned:!owned ~target)
      then None
      else orient csr ~source:t.source ~count:t.count ~members ~owner ~eu ~ev
    end
  end
