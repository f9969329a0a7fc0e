module Csr = Graph_core.Csr
module Tree_pack = Graph_core.Tree_pack
module Sim = Netsim.Sim
module Network = Netsim.Network

type result = {
  delivered : bool array;
  messages_sent : int;
  fallbacks : int;
  tree_count : int;
  completion_time : float;
  coverage_of_alive : float;
}

(* Payload word: chunk id in the high bits, the flood-escalation flag in
   bit 0 — so a tree-routed copy and a fallback-flood copy of the same
   chunk stay distinguishable on the wire. *)
let encode ~chunk ~flood = (chunk lsl 1) lor Bool.to_int flood

let chunk_of payload = payload lsr 1

let is_flood payload = payload land 1 = 1

(* Forward one chunk from [node] down its tree, or escalate. The
   all-children check runs before any send: a dead child link
   (failed, crashed endpoint, or full Drop_tail FIFO) means the
   subtree below it is unreachable by tree routing, so the node
   switches this chunk to flood mode — every neighbour except the one
   it came from — and delivery degrades to the O(2m) flood bound
   instead of silently losing the subtree. Returns 1 on escalation,
   0 on a clean tree hop. *)
let forward ~net ~pack ~tree ~node ~parent ~chunk =
  let usable = ref true in
  Tree_pack.iter_children pack ~tree ~node (fun ~child ~eidx ->
      if !usable && not (Network.link_usable net ~src:node ~dst:child ~eidx) then usable := false);
  if !usable then begin
    let p = encode ~chunk ~flood:false in
    Tree_pack.iter_children pack ~tree ~node (fun ~child ~eidx ->
        Network.send_int net ~src:node ~dst:child ~eidx p);
    0
  end
  else begin
    Network.send_neighbors_except net ~src:node ~except:parent (encode ~chunk ~flood:true);
    1
  end

let run_env ~env ~csr ~source ?count ?(tree = 0) ?pack () =
  let n = Csr.n csr in
  if source < 0 || source >= n then invalid_arg "Trees.run: source out of range";
  if List.mem source env.Env.crashed then invalid_arg "Trees.run: source is crashed";
  let pack =
    match pack with Some p -> p | None -> Tree_pack.pack ?count csr ~source
  in
  if Tree_pack.source pack <> source then invalid_arg "Trees.run: pack is for another source";
  if tree < 0 || tree >= Tree_pack.count pack then invalid_arg "Trees.run: tree out of range";
  let obs = env.Env.obs in
  let sim = Env.sim_of env in
  let net = Env.network_of_csr env ~sim ~csr in
  let delivered = Array.make n false in
  let delivery_time = Array.make n (-1.0) in
  (* Second dedup plane: has this node already forwarded a flood copy?
     Kept separate from [delivered] so a node that the tree already
     covered still relays the fallback flood exactly once — otherwise a
     ring of tree-delivered nodes would absorb the flood and starve the
     nodes behind the dead edge it is trying to reach. *)
  let flooded = Array.make n false in
  let fallbacks = ref 0 in
  let tree_hop node parent chunk =
    if forward ~net ~pack ~tree ~node ~parent ~chunk = 1 then begin
      (* [forward] already sent the flood burst; account for it *)
      incr fallbacks;
      flooded.(node) <- true
    end
  in
  Network.set_receiver net (fun ~dst ~src payload ->
      let chunk = chunk_of payload in
      if is_flood payload then begin
        if not delivered.(dst) then begin
          delivered.(dst) <- true;
          delivery_time.(dst) <- Sim.now sim
        end;
        if not flooded.(dst) then begin
          flooded.(dst) <- true;
          Network.send_neighbors_except net ~src:dst ~except:src (encode ~chunk ~flood:true)
        end
      end
      else if not delivered.(dst) then begin
        delivered.(dst) <- true;
        delivery_time.(dst) <- Sim.now sim;
        tree_hop dst src chunk
      end);
  delivered.(source) <- true;
  delivery_time.(source) <- 0.0;
  tree_hop source (-1) 0;
  Sim.run sim;
  let alive = Network.alive_mask net in
  let alive_count = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 alive in
  let reached = ref 0 in
  for v = 0 to n - 1 do
    if alive.(v) && delivered.(v) then incr reached
  done;
  let stats = Network.stats net in
  let completion_time = Array.fold_left Float.max 0.0 delivery_time in
  let coverage = float_of_int !reached /. float_of_int (max 1 alive_count) in
  (if Obs.Registry.enabled obs then begin
     let h = Obs.Registry.histogram obs "trees.completion" ~bounds:Obs.Registry.time_bounds in
     Array.iter (fun t -> if t >= 0.0 then Obs.Registry.observe h t) delivery_time;
     Obs.Registry.add (Obs.Registry.counter obs "trees.delivered_nodes") !reached;
     Obs.Registry.add (Obs.Registry.counter obs "trees.fallbacks") !fallbacks;
     Obs.Registry.set (Obs.Registry.gauge obs "trees.coverage") coverage;
     Obs.Registry.set (Obs.Registry.gauge obs "trees.completion_time") completion_time
   end);
  {
    delivered;
    messages_sent = stats.Network.sent;
    fallbacks = !fallbacks;
    tree_count = Tree_pack.count pack;
    completion_time;
    coverage_of_alive = coverage;
  }
