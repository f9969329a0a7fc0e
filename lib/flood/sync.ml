module Csr = Graph_core.Csr
module Bfs = Graph_core.Bfs

type t = { reached : int; rounds : int; messages : int; covers_all_alive : bool }

let flood_csr ?workspace ?alive ?(obs = Obs.Registry.nil) csr ~source =
  let ws = match workspace with Some w -> w | None -> Bfs.Workspace.create () in
  let dist = Bfs.csr_distances_into ws ?alive csr ~src:source in
  let live = match alive with None -> fun _ -> true | Some a -> fun v -> a.(v) in
  let nv = Csr.n csr in
  let reached = ref 0 and rounds = ref 0 and degree_sum = ref 0 and alive_total = ref 0 in
  for v = 0 to nv - 1 do
    if live v then incr alive_total;
    let d = dist.(v) in
    if d >= 0 then begin
      incr reached;
      if d > !rounds then rounds := d;
      degree_sum := !degree_sum + Csr.degree csr v
    end
  done;
  (* Every reached vertex sends to all neighbours except its first
     parent; the source has no parent. *)
  let messages = !degree_sum - (!reached - 1) in
  (if Obs.Registry.enabled obs then begin
     let h_rounds = Obs.Registry.histogram obs "sync.rounds" ~bounds:Obs.Registry.hop_bounds in
     Obs.Registry.observe h_rounds (float_of_int !rounds);
     Obs.Registry.add (Obs.Registry.counter obs "sync.reached") !reached;
     Obs.Registry.add (Obs.Registry.counter obs "sync.messages") messages;
     (* synchronous rounds on the virtual timeline: round r spans (r-1, r] *)
     let width = Array.make (!rounds + 1) 0 in
     for v = 0 to nv - 1 do
       if dist.(v) >= 0 then width.(dist.(v)) <- width.(dist.(v)) + 1
     done;
     for r = 1 to !rounds do
       Obs.Registry.event_at obs ~at:(float_of_int (r - 1)) Obs.Registry.Round_start
         ~node:width.(r) ~info:r;
       Obs.Registry.event_at obs ~at:(float_of_int r) Obs.Registry.Round_end ~node:width.(r)
         ~info:r
     done
   end);
  { reached = !reached; rounds = !rounds; messages; covers_all_alive = !reached = !alive_total }

let message_bound csr = (2 * Csr.m csr) - (Csr.n csr - 1)
