module Csr = Graph_core.Csr
module Prng = Graph_core.Prng
module Tree_pack = Graph_core.Tree_pack
module Sim = Netsim.Sim
module Network = Netsim.Network
module Env = Flood.Env

type result = {
  workload : Workload.t;
  sources : int list;
  chunks_injected : int;
  chunks_skipped : int;
  deliveries : int;
  wire_messages : int;
  dropped_queue : int;
  dropped_link : int;
  dropped_crash : int;
  dropped_random : int;
  duration : float;
  throughput : float;
  delivery_fraction : float;
  all_covered : bool;
  p50_delay : float;
  p95_delay : float;
  p99_delay : float;
  max_delay : float;
  max_queue_backlog : int;
  hot_links : (int * int * int) list;
  tree_fallbacks : int;
  tree_fallback_bursts : int;
  recovery_time : float;
  epochs_applied : int;
  restripe_patched : int;
  restripe_repacked : int;
  control_messages : int;
}

(* the dedup table is one byte per (chunk, node) pair; refuse workloads
   that would need more than 256 MB of it *)
let max_pairs = 1 lsl 28

(* dedup bits: bit 0 = first delivery happened, bit 1 = a fallback
   flood copy was relayed (Trees mode only; see [Flood.Trees]) *)
let bit_delivered = 1

let bit_flooded = 2

let run_csr_env ~env ?plan ?reconfig ~csr ~(workload : Workload.t) () =
  let n = Csr.n csr in
  (match Workload.validate workload ~n with
  | Error e -> invalid_arg ("Traffic.run: " ^ e)
  | Ok () -> ());
  let sources = Workload.resolve_sources workload ~n in
  List.iter
    (fun s ->
      if List.mem s env.Env.crashed then
        invalid_arg (Printf.sprintf "Traffic.run: source %d is crashed at t = 0" s))
    sources;
  (match plan with
  | Some p -> (
      match Chaos.Plan.validate csr p with
      | Error e -> invalid_arg ("Traffic.run: invalid plan: " ^ e)
      | Ok () -> ())
  | None -> ());
  (match reconfig with
  | Some rc ->
      if rc.Reconfig.union_n <> n then
        invalid_arg "Traffic.run: reconfig union_n does not match the snapshot";
      (match Reconfig.validate rc ~sources with
      | Error e -> invalid_arg ("Traffic.run: invalid reconfig: " ^ e)
      | Ok () -> ())
  | None -> ());
  let nsources = List.length sources in
  let chunks = workload.Workload.chunks_per_source in
  let total = nsources * chunks in
  if total > max_pairs / n then
    invalid_arg
      (Printf.sprintf "Traffic.run: %d chunks x %d nodes exceeds the dedup budget (2^28 pairs)"
         total n);
  (* precomputed injection schedule: one rng stream per source, split
     off the run seed in source order, so the schedule depends only on
     (seed, workload) — never on engine or execution order *)
  let src_of = Array.make total 0 in
  let inject_time = Array.make total 0.0 in
  let root = Prng.create ~seed:(Env.seed_value env lxor 0x74726166 (* "traf" *)) in
  List.iteri
    (fun si src ->
      let r = Prng.split root in
      let t = ref 0.0 in
      for j = 0 to chunks - 1 do
        (match workload.Workload.arrival with
        | Workload.Periodic -> t := float_of_int (j + 1) /. workload.Workload.rate
        | Workload.Poisson ->
            t := !t +. Prng.exponential r ~mean:(1.0 /. workload.Workload.rate));
        let g = (si * chunks) + j in
        src_of.(g) <- src;
        inject_time.(g) <- !t
      done)
    sources;
  let sim = Env.sim_of env in
  let net = Env.network_of_csr env ~sim ~csr in
  (* Live-view state a reconfiguration timeline mutates mid-run.
     Without one, these stay all-true/zero and every code path below
     reduces to the static behaviour: same obligations, same packs. *)
  let member = Array.make n true in
  let last_join = Array.make n 0.0 in
  (* one flag per directed edge, read only by a timeline's re-striping *)
  let active =
    match reconfig with Some _ -> Array.make (Csr.degree_sum csr) true | None -> [||]
  in
  let set_active u v b =
    active.(Csr.edge_index csr u v) <- b;
    active.(Csr.edge_index csr v u) <- b
  in
  (match reconfig with
  | Some rc ->
      Array.blit rc.Reconfig.member0 0 member 0 n;
      for v = 0 to n - 1 do
        if not member.(v) then begin
          last_join.(v) <- infinity;
          Network.crash net v
        end
      done;
      List.iter
        (fun (u, v) ->
          Network.fail_link net u v;
          set_active u v false)
        rc.Reconfig.absent0
  | None -> ());
  (match plan with Some p -> Chaos.Exec.install net p | None -> ());
  let obs = env.Env.obs in
  let obs_on = Obs.Registry.enabled obs in
  let h_delay =
    if obs_on then Some (Obs.Registry.histogram obs "traffic.delay" ~bounds:Obs.Registry.time_bounds)
    else None
  in
  (* per-(chunk, node) first-delivery flags, per-chunk progress *)
  let seen = Bytes.make (total * n) '\000' in
  let delivered_count = Array.make total 0 in
  let last_delivery = Array.make total 0.0 in
  let injected = Array.make total false in
  let skipped = ref 0 in
  (* the delay samples, at most one per (chunk, non-source node), so
     the buffer never grows past that bound; the end-of-run percentiles
     select in place over the filled prefix. Once doubling would pass
     half the bound, the buffer grows straight to it: a bound just
     above a power of two would otherwise cost one last full copy for
     a handful of samples. *)
  let delays = ref (Array.make 1024 0.0) in
  let ndelays = ref 0 in
  let max_delays = total * (n - 1) in
  let record chunk =
    delivered_count.(chunk) <- delivered_count.(chunk) + 1;
    let now = Sim.now sim in
    last_delivery.(chunk) <- now;
    let d = now -. inject_time.(chunk) in
    if !ndelays = Array.length !delays then begin
      let len = !ndelays in
      let grown = Array.make (if 4 * len > max_delays then max_delays else 2 * len) 0.0 in
      Array.blit !delays 0 grown 0 len;
      delays := grown
    end;
    !delays.(!ndelays) <- d;
    incr ndelays
  in
  let fallbacks = ref 0 and fallback_bursts = ref 0 in
  let epochs_applied = ref 0 in
  let restripe_patched = ref 0 and restripe_repacked = ref 0 in
  (* Installed by the Trees branch when a reconfig timeline is present;
     the other strategies stream on the raw links, so for them an epoch
     commit only flips memberships. *)
  let restripe : (Reconfig.epoch -> unit) ref = ref (fun _ -> ()) in
  (* Strategy dispatch: build the delivery handler and return the
     per-chunk injection sender. All three share the dedup table and
     delay accounting; only the forwarding rule differs. The handler
     lands in a ref so the control-plane wrapper below can interpose
     without each branch knowing about it. *)
  let data_recv : (dst:int -> src:int -> int -> unit) ref =
    ref (fun ~dst:_ ~src:_ _ -> ())
  in
  let set_recv f = data_recv := f in
  let inject_send : int -> int -> unit =
    match workload.Workload.dissemination with
    | Workload.Flood ->
        (* every first delivery re-floods to all neighbours *)
        set_recv (fun ~dst ~src chunk ->
            let idx = (chunk * n) + dst in
            if Bytes.unsafe_get seen idx = '\000' then begin
              Bytes.unsafe_set seen idx '\001';
              record chunk;
              Network.send_neighbors_except net ~src:dst ~except:src chunk
            end);
        fun g src -> Network.send_neighbors_except net ~src ~except:(-1) g
    | Workload.Trees ->
        (* chunk j of source i rides tree (j mod count) of source i's
           packing — round-robin striping, so each packed tree carries
           ~1/count of the stream and no single link sees every chunk.
           The payload word carries the chunk id and Flood.Trees's
           escalation flag; a flagged copy is relayed at most once per
           (chunk, node) even after a tree delivery (bit 1), which is
           what lets the fallback flood get past already-covered nodes
           to the subtree behind a dead edge. *)
        let packs =
          match reconfig with
          | None -> Tree_pack.pack_all ?pool:env.Env.pool csr ~sources
          | Some rc ->
              (* masked packs over the union snapshot, re-striped in
                 place at each commit *)
              Tree_pack.pack_all ?pool:env.Env.pool ?count:rc.Reconfig.tree_count csr ~member
                ~usable:(fun e -> active.(e))
                ~sources
        in
        (match reconfig with
        | None -> ()
        | Some rc ->
            let srcs = Array.of_list sources in
            let usable e = active.(e) in
            restripe :=
              fun (ep : Reconfig.epoch) ->
                Array.iteri
                  (fun i pk ->
                    let fresh () =
                      incr restripe_repacked;
                      packs.(i) <-
                        Tree_pack.pack ?count:rc.Reconfig.tree_count csr ~member ~usable
                          ~source:srcs.(i)
                    in
                    if ep.Reconfig.repack then fresh ()
                    else
                      match Tree_pack.patch pk csr ~member ~usable () with
                      | Some p ->
                          incr restripe_patched;
                          packs.(i) <- p
                      | None -> fresh ())
                  packs);
        let tree_of chunk =
          (chunk mod chunks) mod Tree_pack.count packs.(chunk / chunks)
        in
        (* Escalation accounting. Every forward that escalates is a
           burst, but the same dead edge escalates once per chunk
           striped onto its tree — so [tree_fallbacks] dedups bursts by
           (source, tree, node): the number of distinct escalation
           points discovered, which is what the fault actually looks
           like in the topology. *)
        (* re-striping may later reach the requested count even where the
           initial masks forced a back-off, so size the escalation table
           for the request, not just the t = 0 packs *)
        let maxtrees =
          let requested =
            match reconfig with
            | None -> 1
            | Some rc -> (
                match rc.Reconfig.tree_count with
                | Some c -> c
                | None -> Tree_pack.default_count csr)
          in
          Array.fold_left (fun a p -> max a (Tree_pack.count p)) (max 1 requested) packs
        in
        let esc_seen = Bytes.make (nsources * maxtrees * n) '\000' in
        let note_escalation chunk node =
          incr fallback_bursts;
          let key = ((((chunk / chunks) * maxtrees) + tree_of chunk) * n) + node in
          if Bytes.unsafe_get esc_seen key = '\000' then begin
            Bytes.unsafe_set esc_seen key '\001';
            incr fallbacks
          end
        in
        let mark idx bits b = Bytes.unsafe_set seen idx (Char.unsafe_chr (b lor bits)) in
        set_recv (fun ~dst ~src payload ->
            let chunk = Flood.Trees.chunk_of payload in
            let idx = (chunk * n) + dst in
            let b = Char.code (Bytes.unsafe_get seen idx) in
            if Flood.Trees.is_flood payload then begin
              if b land bit_delivered = 0 then begin
                mark idx (bit_delivered lor bit_flooded) b;
                record chunk;
                Network.send_neighbors_except net ~src:dst ~except:src payload
              end
              else if b land bit_flooded = 0 then begin
                mark idx bit_flooded b;
                Network.send_neighbors_except net ~src:dst ~except:src payload
              end
            end
            else if b land bit_delivered = 0 then begin
              mark idx bit_delivered b;
              record chunk;
              let pack = packs.(chunk / chunks) in
              if
                Flood.Trees.forward ~net ~pack ~tree:(tree_of chunk) ~node:dst ~parent:src
                  ~chunk
                = 1
              then begin
                note_escalation chunk dst;
                mark idx bit_flooded (Char.code (Bytes.unsafe_get seen idx))
              end
            end);
        fun g src ->
          let pack = packs.(g / chunks) in
          if Flood.Trees.forward ~net ~pack ~tree:(tree_of g) ~node:src ~parent:(-1) ~chunk:g = 1
          then begin
            note_escalation g src;
            let idx = (g * n) + src in
            mark idx bit_flooded (Char.code (Bytes.unsafe_get seen idx))
          end
    | Workload.Gossip ->
        (* push gossip at the snapshot's min-degree fanout with the
           standard log2(n)+4 TTL: the randomized baseline, one int per
           message like the others (chunk * (ttl_limit+1) + ttl) *)
        let off = Csr.offsets csr and nbr = Csr.neighbor_array csr in
        let fanout =
          let md = ref max_int in
          for v = 0 to n - 1 do
            let d = off.{v + 1} - off.{v} in
            if d < !md then md := d
          done;
          max 1 !md
        in
        let ttl_limit = Flood.Gossip.default_ttl ~n in
        let base = ttl_limit + 1 in
        let rng = Sim.fork_rng sim in
        let push_gossip v ~chunk ~ttl =
          let deg = off.{v + 1} - off.{v} in
          if deg > 0 then begin
            let picks = min fanout deg in
            let chosen = Prng.sample_without_replacement rng ~k:picks ~n:deg in
            List.iter
              (fun i ->
                let e = off.{v} + i in
                Network.send_int net ~src:v ~dst:nbr.{e} ~eidx:e ((chunk * base) + ttl))
              chosen
          end
        in
        set_recv (fun ~dst ~src:_ payload ->
            let chunk = payload / base in
            let ttl = payload mod base in
            let idx = (chunk * n) + dst in
            if Bytes.unsafe_get seen idx = '\000' then begin
              Bytes.unsafe_set seen idx '\001';
              record chunk;
              if ttl > 1 then push_gossip dst ~chunk ~ttl:(ttl - 1)
            end);
        fun g src -> push_gossip src ~chunk:g ~ttl:ttl_limit
  in
  (* Control plane: when the network has priority bands, each epoch
     commit floods a band-0 notice through the live topology so the
     reconfiguration news overtakes the queued data backlog — the
     delivered copy is what a real deployment would act on; here it is
     accounted (band-0 [sent]) and deduped per (epoch, node). Payloads
     at or above [control_base] are reserved for it, far beyond any
     chunk encoding. *)
  let control_base = 1 lsl 40 in
  let ctrl_emit = ref (fun _ -> ()) in
  (match reconfig with
  | Some rc when rc.Reconfig.epochs <> [] && Network.bands net > 1 ->
      let nep = Reconfig.epoch_count rc in
      let ctrl_seen = Bytes.make (nep * n) '\000' in
      let relay node except ep =
        let idx = (ep * n) + node in
        if Bytes.unsafe_get ctrl_seen idx = '\000' then begin
          Bytes.unsafe_set ctrl_seen idx '\001';
          let save = Network.send_band net in
          Network.set_send_band net 0;
          Network.send_neighbors_except net ~src:node ~except (control_base + ep);
          Network.set_send_band net save
        end
      in
      Network.set_receiver net (fun ~dst ~src payload ->
          if payload >= control_base then relay dst src (payload - control_base)
          else !data_recv ~dst ~src payload);
      ctrl_emit :=
        fun ep ->
          (match List.find_opt (fun s -> not (Network.is_crashed net s)) sources with
          | Some origin -> relay origin (-1) ep
          | None -> ())
  | _ -> Network.set_receiver net !data_recv);
  (match reconfig with
  | None -> ()
  | Some rc ->
      List.iter
        (fun (ep : Reconfig.epoch) ->
          Sim.schedule_at sim ~time:ep.Reconfig.at (fun () ->
              List.iter
                (fun v ->
                  Network.crash net v;
                  member.(v) <- false)
                ep.Reconfig.leaves;
              List.iter
                (fun (u, v) ->
                  Network.fail_link net u v;
                  set_active u v false)
                ep.Reconfig.link_down;
              List.iter
                (fun (u, v) ->
                  Network.restore_link net u v;
                  set_active u v true)
                ep.Reconfig.link_up;
              List.iter
                (fun v ->
                  Network.recover net v;
                  member.(v) <- true;
                  last_join.(v) <- ep.Reconfig.at)
                ep.Reconfig.joins;
              incr epochs_applied;
              !restripe ep;
              !ctrl_emit ep.Reconfig.index))
        rc.Reconfig.epochs);
  for g = 0 to total - 1 do
    Sim.schedule_at sim ~time:inject_time.(g) (fun () ->
        let src = src_of.(g) in
        (* a chunk whose source a chaos plan has crashed by its arrival
           instant is simply never offered — counted, not raised *)
        if Network.is_crashed net src then incr skipped
        else begin
          injected.(g) <- true;
          Bytes.unsafe_set seen ((g * n) + src) '\001';
          delivered_count.(g) <- 1;
          last_delivery.(g) <- inject_time.(g);
          inject_send g src
        end)
  done;
  Sim.run sim;
  (* the registry takes the delays from the buffer, in delivery order,
     before the percentile selection below reorders it: the same counts
     and, addition for addition, the same sum as one observation per
     delivery *)
  (match h_delay with Some h -> Obs.Registry.observe_array h !delays ~len:!ndelays | None -> ());
  let duration = Sim.now sim in
  let alive = Network.alive_mask net in
  let chunks_injected = total - !skipped in
  (* Coverage against the nodes alive at the end of the run. Under a
     reconfig timeline a node is only obligated for chunks injected at
     or after its join instant — a joiner never saw the stream's past,
     and holding that against delivery would punish growth. With no
     timeline [last_join] is all zero and this is the static count. *)
  let covers = Array.make total false in
  let covered_pairs = ref 0 in
  let obligated = ref 0 in
  for g = 0 to total - 1 do
    if injected.(g) then begin
      let full = ref true in
      for v = 0 to n - 1 do
        if alive.(v) && last_join.(v) <= inject_time.(g) then begin
          incr obligated;
          if Bytes.unsafe_get seen ((g * n) + v) <> '\000' then incr covered_pairs
          else full := false
        end
      done;
      covers.(g) <- !full
    end
  done;
  let delivery_fraction =
    if !obligated = 0 then 0.0 else float_of_int !covered_pairs /. float_of_int !obligated
  in
  let all_covered =
    chunks_injected > 0
    && Array.for_all (fun c -> c) (Array.init total (fun g -> (not injected.(g)) || covers.(g)))
  in
  (* recovery time: among chunks injected after the last event of the
     chaos plan and the churn trace combined, the earliest one to fully
     cover the survivors, measured from the last degrading event (a
     crash, a downed link, a lossy period, a leave) — how long the
     stream takes to run clean again once the faults stop coming *)
  let recovery_time =
    let plan_evs = match plan with Some p -> Chaos.Plan.events p | None -> [] in
    let degrade (e : Chaos.Plan.timed) =
      match e.Chaos.Plan.event with
      | Chaos.Plan.Crash _ | Chaos.Plan.Link_down _ | Chaos.Plan.Partition _ -> true
      | Chaos.Plan.Loss_rate r -> r > 0.0
      | Chaos.Plan.Recover _ | Chaos.Plan.Link_up _ | Chaos.Plan.Heal -> false
    in
    let ep_list = match reconfig with Some rc -> rc.Reconfig.epochs | None -> [] in
    let event_times =
      List.map (fun (e : Chaos.Plan.timed) -> e.Chaos.Plan.at) plan_evs
      @ List.map (fun (e : Reconfig.epoch) -> e.Reconfig.at) ep_list
    in
    let degrade_times =
      List.filter_map
        (fun (e : Chaos.Plan.timed) -> if degrade e then Some e.Chaos.Plan.at else None)
        plan_evs
      @ List.filter_map
          (fun (e : Reconfig.epoch) ->
            if e.Reconfig.leaves <> [] || e.Reconfig.link_down <> [] then Some e.Reconfig.at
            else None)
          ep_list
    in
    if degrade_times = [] then -1.0
    else begin
      let last_event = List.fold_left max 0.0 event_times in
      let last_degrade = List.fold_left max (-1.0) degrade_times in
      let best = ref infinity in
      for g = 0 to total - 1 do
        if
          injected.(g) && covers.(g)
          && inject_time.(g) >= last_event
          && last_delivery.(g) < !best
        then best := last_delivery.(g)
      done;
      if !best = infinity then -1.0 else !best -. last_degrade
    end
  in
  let percentile = Flood.Runner.percentile !delays ~len:!ndelays in
  let stats = Network.stats net in
  let throughput =
    if duration > 0.0 then float_of_int !ndelays /. duration else 0.0
  in
  let control_messages =
    if Network.bands net > 1 then (Network.band_stats net ~band:0).Network.sent else 0
  in
  if obs_on then begin
    Obs.Registry.add (Obs.Registry.counter obs "traffic.chunks") chunks_injected;
    Obs.Registry.add (Obs.Registry.counter obs "traffic.deliveries") !ndelays;
    Obs.Registry.set_max (Obs.Registry.gauge obs "traffic.throughput") throughput
  end;
  {
    workload;
    sources;
    chunks_injected;
    chunks_skipped = !skipped;
    deliveries = !ndelays;
    wire_messages = stats.Network.sent;
    dropped_queue = stats.Network.dropped_queue;
    dropped_link = stats.Network.dropped_link;
    dropped_crash = stats.Network.dropped_crash;
    dropped_random = stats.Network.dropped_random;
    duration;
    throughput;
    delivery_fraction;
    all_covered;
    p50_delay = percentile 0.50;
    p95_delay = percentile 0.95;
    p99_delay = percentile 0.99;
    max_delay = percentile 1.0;
    max_queue_backlog = Network.max_queue_backlog net;
    hot_links = Network.hottest_links net ~max:5;
    tree_fallbacks = !fallbacks;
    tree_fallback_bursts = !fallback_bursts;
    recovery_time;
    epochs_applied = !epochs_applied;
    restripe_patched = !restripe_patched;
    restripe_repacked = !restripe_repacked;
    control_messages;
  }

let schema = "lhg-traffic/1"

(* The result body, written into a document someone else opened: the
   caller (Scenario.report_traffic, the scenario stream) owns the
   header — topology, sizes, seed — and the close; this stays a pure
   result-to-stream projection with no idea where it is embedded. *)
let emit s r =
  let module S = Obs.Stream in
  S.obj s "workload" (fun s ->
      S.str s "arrival" (Workload.arrival_name r.workload.Workload.arrival);
      S.str s "dissemination" (Workload.dissemination_name r.workload.Workload.dissemination);
      S.ints s "sources" r.sources;
      S.int s "chunks_per_source" r.workload.Workload.chunks_per_source;
      S.float s "rate" r.workload.Workload.rate);
  S.obj s "chunks" (fun s ->
      S.int s "injected" r.chunks_injected;
      S.int s "skipped" r.chunks_skipped);
  S.obj s "wire" (fun s ->
      S.int s "sent" r.wire_messages;
      S.int s "dropped_queue" r.dropped_queue;
      S.int s "dropped_link" r.dropped_link;
      S.int s "dropped_crash" r.dropped_crash;
      S.int s "dropped_random" r.dropped_random);
  S.obj s "delay" (fun s ->
      S.float s "p50" r.p50_delay;
      S.float s "p95" r.p95_delay;
      S.float s "p99" r.p99_delay;
      S.float s "max" r.max_delay);
  S.obj s "queue" (fun s ->
      S.int s "max_backlog" r.max_queue_backlog;
      S.raw s "hot_links"
        ("["
        ^ String.concat ", "
            (List.map
               (fun (src, dst, peak) ->
                 Printf.sprintf "{\"src\": %d, \"dst\": %d, \"peak\": %d}" src dst peak)
               r.hot_links)
        ^ "]"));
  S.obj s "reconfig" (fun s ->
      S.int s "epochs_applied" r.epochs_applied;
      S.int s "restripe_patched" r.restripe_patched;
      S.int s "restripe_repacked" r.restripe_repacked;
      S.int s "control_messages" r.control_messages);
  S.float s "duration" r.duration;
  S.summary s (fun s ->
      S.int s "deliveries" r.deliveries;
      S.float s "throughput" r.throughput;
      S.float s "delivery_fraction" r.delivery_fraction;
      S.bool s "all_covered" r.all_covered;
      S.int s "tree_fallbacks" r.tree_fallbacks;
      S.int s "tree_fallback_bursts" r.tree_fallback_bursts;
      S.float s "recovery_time" r.recovery_time)
