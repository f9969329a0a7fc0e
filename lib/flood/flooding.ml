module Csr = Graph_core.Csr
module Sim = Netsim.Sim
module Network = Netsim.Network

type result = {
  delivered : bool array;
  delivery_time : float array;
  hops : int array;
  messages_sent : int;
  messages_delivered : int;
  completion_time : float;
  max_hops : int;
  covers_all_alive : bool;
}

(* the payload is the bare hop count: together with the pooled event
   core underneath, one flooded message costs zero allocation *)

let run_csr_env ~env ~csr ~source () =
  let n = Csr.n csr in
  if source < 0 || source >= n then invalid_arg "Flood.run: source out of range";
  if List.mem source env.Env.crashed then invalid_arg "Flood.run: source is crashed";
  let obs = env.Env.obs in
  let sim = Env.sim_of env in
  let net = Env.network_of_csr env ~sim ~csr in
  let delivered = Array.make n false in
  let delivery_time = Array.make n (-1.0) in
  let hops = Array.make n (-1) in
  (* [dst] is always in range — it came off the network's own CSR row *)
  Network.set_receiver net (fun ~dst ~src hop ->
      if not (Array.unsafe_get delivered dst) then begin
        Array.unsafe_set delivered dst true;
        Array.unsafe_set delivery_time dst (Sim.now sim);
        Array.unsafe_set hops dst hop;
        Network.send_neighbors_except net ~except:src ~src:dst (hop + 1)
      end);
  delivered.(source) <- true;
  delivery_time.(source) <- 0.0;
  hops.(source) <- 0;
  Network.send_neighbors_except net ~src:source ~except:(-1) 1;
  Sim.run sim;
  let completion_time = Array.fold_left max 0.0 delivery_time in
  let max_hops = Array.fold_left max 0 hops in
  let alive = Network.alive_mask net in
  let covers_all_alive =
    let ok = ref true in
    Array.iteri (fun v live -> if live && not delivered.(v) then ok := false) alive;
    !ok
  in
  let stats = Network.stats net in
  (if Obs.Registry.enabled obs then begin
     let open Obs.Registry in
     let h_hops = histogram obs "flood.hops" ~bounds:hop_bounds in
     let h_completion = histogram obs "flood.completion" ~bounds:time_bounds in
     let reached = ref 0 in
     Array.iteri
       (fun v ok ->
         if ok then begin
           reached := !reached + 1;
           observe h_hops (float_of_int hops.(v));
           observe h_completion delivery_time.(v)
         end)
       delivered;
     (* reconstruct the hop layers as round spans on the shared
        timeline: round r closes when its last member first hears *)
     let layer_count = Array.make (max_hops + 1) 0 in
     let layer_close = Array.make (max_hops + 1) 0.0 in
     Array.iteri
       (fun v h ->
         if h >= 0 then begin
           layer_count.(h) <- layer_count.(h) + 1;
           if delivery_time.(v) > layer_close.(h) then layer_close.(h) <- delivery_time.(v)
         end)
       hops;
     for h = 1 to max_hops do
       event_at obs ~at:layer_close.(h - 1) Round_start ~node:layer_count.(h) ~info:h;
       event_at obs ~at:layer_close.(h) Round_end ~node:layer_count.(h) ~info:h
     done;
     add (counter obs "flood.delivered_nodes") !reached;
     set (gauge obs "flood.rounds") (float_of_int max_hops);
     set (gauge obs "flood.completion_time") completion_time;
     let alive_count = Array.fold_left (fun a b -> if b then a + 1 else a) 0 alive in
     set (gauge obs "flood.coverage")
       (float_of_int !reached /. float_of_int (max 1 alive_count))
   end);
  {
    delivered;
    delivery_time;
    hops;
    messages_sent = stats.Network.sent;
    messages_delivered = stats.Network.delivered;
    completion_time;
    max_hops;
    covers_all_alive;
  }
