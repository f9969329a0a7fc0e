module Prng = Graph_core.Prng
module Sim = Netsim.Sim
module Network = Netsim.Network

type result = {
  delivered : bool array;
  messages_sent : int;
  completion_time : float;
  coverage_of_alive : float;
}

let default_ttl ~n =
  if n <= 1 then 1 else int_of_float (ceil (log (float_of_int n) /. log 2.0)) + 4

let run_env ~env ~csr ~source ~fanout ~ttl () =
  if fanout < 1 then invalid_arg "Gossip.run: fanout < 1";
  if ttl < 1 then invalid_arg "Gossip.run: ttl < 1";
  let crashed = env.Env.crashed in
  let obs = env.Env.obs in
  let n = Graph_core.Csr.n csr in
  if source < 0 || source >= n then invalid_arg "Gossip.run: source out of range";
  if List.mem source crashed then invalid_arg "Gossip.run: source is crashed";
  let sim = Env.sim_of env in
  let net = Env.network_of_csr env ~sim ~csr in
  let rng = Sim.fork_rng sim in
  let delivered = Array.make n false in
  let delivery_time = Array.make n (-1.0) in
  let off = Graph_core.Csr.offsets csr and nbr = Graph_core.Csr.neighbor_array csr in
  let push v ~ttl =
    let deg = off.{v + 1} - off.{v} in
    if deg > 0 then begin
      let picks = min fanout deg in
      let chosen = Prng.sample_without_replacement rng ~k:picks ~n:deg in
      (* the message is the remaining TTL *)
      List.iter (fun i -> Network.send net ~src:v ~dst:nbr.{off.{v} + i} ttl) chosen
    end
  in
  Network.set_receiver net (fun ~dst ~src:_ ttl ->
      if not delivered.(dst) then begin
        delivered.(dst) <- true;
        delivery_time.(dst) <- Sim.now sim;
        if ttl > 1 then push dst ~ttl:(ttl - 1)
      end);
  delivered.(source) <- true;
  delivery_time.(source) <- 0.0;
  push source ~ttl;
  Sim.run sim;
  let alive = Network.alive_mask net in
  let alive_count = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 alive in
  let reached = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 delivered in
  let stats = Network.stats net in
  let completion_time = Array.fold_left max 0.0 delivery_time in
  let coverage = float_of_int reached /. float_of_int (max 1 alive_count) in
  (if Obs.Registry.enabled obs then begin
     let h = Obs.Registry.histogram obs "gossip.completion" ~bounds:Obs.Registry.time_bounds in
     Array.iter (fun t -> if t >= 0.0 then Obs.Registry.observe h t) delivery_time;
     Obs.Registry.add (Obs.Registry.counter obs "gossip.delivered_nodes") reached;
     Obs.Registry.set (Obs.Registry.gauge obs "gossip.coverage") coverage;
     Obs.Registry.set (Obs.Registry.gauge obs "gossip.completion_time") completion_time
   end);
  { delivered; messages_sent = stats.Network.sent; completion_time; coverage_of_alive = coverage }
