module Prng = Graph_core.Prng
module Sim = Netsim.Sim
module Network = Netsim.Network

type publication = { origin : int; inject_time : float; payload_id : int }

type result = {
  delivered_fraction : float;
  complete : bool;
  completion_time : float option;
  flood_messages : int;
  repair_messages : int;
  repair_messages_at_completion : int option;
}

(* The wire encoding, one int per message: the kind in the low two
   bits, above it the publication's index ([Flood], [Data]) or the
   key of a digest parked in the run's digest table ([Digest]). *)
let kind_flood = 0

let kind_digest = 1

let kind_data = 2

let encode kind x = (x lsl 2) lor kind

let run_env ~env ~csr ~publications ~anti_entropy_period ~duration () =
  if anti_entropy_period <= 0.0 then invalid_arg "Reliable.run: non-positive period";
  if duration <= 0.0 then invalid_arg "Reliable.run: non-positive duration";
  let crashed = env.Env.crashed in
  let obs = env.Env.obs in
  let n = Graph_core.Csr.n csr in
  let ids = List.map (fun (p : publication) -> p.payload_id) publications in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    invalid_arg "Reliable.run: duplicate payload ids";
  List.iter
    (fun (p : publication) ->
      if p.origin < 0 || p.origin >= n then invalid_arg "Reliable.run: origin out of range";
      if List.mem p.origin crashed then invalid_arg "Reliable.run: origin is crashed";
      if p.inject_time < 0.0 then invalid_arg "Reliable.run: negative injection time")
    publications;
  let sim = Env.sim_of env in
  let net = Env.network_of_csr env ~sim ~csr in
  let m_flood = Obs.Registry.counter obs "reliable.flood_messages" in
  let m_repair = Obs.Registry.counter obs "reliable.repair_messages" in
  let rng = Sim.fork_rng sim in
  let pubs = Array.of_list publications in
  let payload_count = Array.length pubs in
  (* has.(v) maps payload id -> publication index for node v *)
  let has = Array.init n (fun _ -> Hashtbl.create 8) in
  (* digests in flight, by key: parked at send, freed on delivery (one
     lost on the wire stays parked until the run ends) *)
  let digests : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  let next_digest = ref 0 in
  let alive = Network.alive_mask net in
  let alive_count = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 alive in
  let remaining = ref (alive_count * payload_count) in
  let completion_time = ref None in
  let flood_messages = ref 0 and repair_messages = ref 0 in
  let repair_at_completion = ref None in
  let holds v id = Hashtbl.mem has.(v) id in
  let send_flood ~src ~dst i =
    incr flood_messages;
    Obs.Registry.incr m_flood;
    Network.send net ~src ~dst (encode kind_flood i)
  in
  let send_repair ~src ~dst msg =
    incr repair_messages;
    Obs.Registry.incr m_repair;
    Network.send net ~src ~dst msg
  in
  (* digests are control traffic *)
  let send_digest ~src ~dst ids =
    let key = !next_digest in
    incr next_digest;
    Hashtbl.replace digests key ids;
    send_repair ~src ~dst (encode kind_digest key)
  in
  (* a [Data] repair is a retransmission of the payload proper *)
  let send_data ~src ~dst id i =
    Obs.Registry.event obs Obs.Registry.Retransmit ~node:src ~info:id;
    send_repair ~src ~dst (encode kind_data i)
  in
  let record v i =
    let id = pubs.(i).payload_id in
    if holds v id then false
    else begin
      Hashtbl.replace has.(v) id i;
      if alive.(v) then begin
        decr remaining;
        if !remaining = 0 && !completion_time = None then begin
          completion_time := Some (Sim.now sim);
          repair_at_completion := Some !repair_messages
        end
      end;
      true
    end
  in
  let forward v ~except i =
    Graph_core.Csr.iter_neighbors csr v (fun w -> if w <> except then send_flood ~src:v ~dst:w i)
  in
  Network.set_receiver net (fun ~dst ~src msg ->
      let x = msg lsr 2 in
      if msg land 3 = kind_digest then begin
        let sender_ids = Hashtbl.find digests x in
        Hashtbl.remove digests x;
        (* push back everything the sender is missing *)
        Hashtbl.iter
          (fun id i -> if not (List.mem id sender_ids) then send_data ~src:dst ~dst:src id i)
          has.(dst)
      end
      (* a flood copy or a data repair: record, and flood on if new *)
      else if record dst x then forward dst ~except:src x);
  (* flooding phase: inject publications *)
  Array.iteri
    (fun i (p : publication) ->
      Sim.schedule_at sim ~time:p.inject_time (fun () ->
          if record p.origin i then forward p.origin ~except:(-1) i))
    pubs;
  (* anti-entropy timers, phase-shifted per node *)
  let digest_of v = Hashtbl.fold (fun id _ acc -> id :: acc) has.(v) [] in
  (* the timer survives crash windows (sends are skipped while the
     node is down) so a node a chaos plan recovers resumes advertising
     its digest and gets repaired *)
  let rec tick v () =
    if Sim.now sim < duration then begin
      (if not (Network.is_crashed net v) then
         let deg = Graph_core.Csr.degree csr v in
         if deg > 0 then begin
           let off = Graph_core.Csr.offsets csr and nbr = Graph_core.Csr.neighbor_array csr in
           let peer = nbr.{off.{v} + Prng.int rng deg} in
           send_digest ~src:v ~dst:peer (digest_of v)
         end);
      Sim.schedule sim ~delay:anti_entropy_period (tick v)
    end
  in
  for v = 0 to n - 1 do
    let phase = Prng.float rng anti_entropy_period in
    Sim.schedule sim ~delay:phase (tick v)
  done;
  Sim.run ~until:duration sim;
  let delivered =
    let total = ref 0 in
    for v = 0 to n - 1 do
      if alive.(v) then total := !total + Hashtbl.length has.(v)
    done;
    !total
  in
  let delivered_fraction =
    if alive_count * payload_count = 0 then 1.0
    else float_of_int delivered /. float_of_int (alive_count * payload_count)
  in
  (if Obs.Registry.enabled obs then begin
     Obs.Registry.set (Obs.Registry.gauge obs "reliable.delivered_fraction") delivered_fraction;
     Obs.Registry.set
       (Obs.Registry.gauge obs "reliable.completion_time")
       (match !completion_time with Some t -> t | None -> -1.0)
   end);
  {
    delivered_fraction;
    complete = !remaining = 0;
    completion_time = !completion_time;
    flood_messages = !flood_messages;
    repair_messages = !repair_messages;
    repair_messages_at_completion = !repair_at_completion;
  }
