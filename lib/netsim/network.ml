module Csr = Graph_core.Csr
module Prng = Graph_core.Prng

type latency = Prng.t -> src:int -> dst:int -> float

let constant_latency l = fun _ ~src:_ ~dst:_ -> l

(* [not (x >= bound)] rejects NaN too; an infinite bound would send
   arrivals to an infinite time, which [Sim] rejects *)
let uniform_latency ~lo ~hi =
  if not (lo >= 0.0 && hi >= lo && hi < infinity) then invalid_arg "Network.uniform_latency";
  fun rng ~src:_ ~dst:_ -> lo +. Prng.float rng (hi -. lo)

let exponential_latency ~mean =
  if not (mean > 1.0) then invalid_arg "Network.exponential_latency: mean must exceed the 1.0 floor";
  if mean = infinity then invalid_arg "Network.exponential_latency: infinite mean";
  fun rng ~src:_ ~dst:_ -> 1.0 +. Prng.exponential rng ~mean:(mean -. 1.0)

type queue_policy = Drop_tail | Block

type stats = {
  sent : int;
  delivered : int;
  dropped_link : int;
  dropped_crash : int;
  dropped_random : int;
  dropped_queue : int;
}

(* In-flight messages ride the Sim event pool as packed ints, the
   message itself in the payload word (a traced network sends its seq
   instead, see [park]). Event tags encode the delivery phase:
   [tag_arrival] fires when the link latency has elapsed, [tag_deliver]
   when a positive processing delay has also elapsed. A [tag_fanout]
   event is a whole unit-latency fan-out (see [send_fanout]). *)
let tag_arrival = 0

let tag_deliver = 1

let tag_fanout = 2

(* Priority bands: with [bands > 1] the sending band rides the event
   payload word above the message, so the delivery side can account
   per band. Sim packs [payload lsl 2 | tag] into one OCaml int, leaving
   61 bits — band bits 58..59 keep every message (< 2^58 by contract)
   intact. Single-band networks never encode, so their payload words —
   and hence their executions — are bit-identical to the pre-band
   engine. *)
let band_shift = 58

let band_payload_mask = (1 lsl band_shift) - 1

let max_bands = 4

type t = {
  sim : Sim.t;
  cell : float array;  (** [Sim.time_cell sim]: computed event times go through it unboxed *)
  csr : Csr.t;  (** topology frozen at creation; every send checks it *)
  latency : latency;
  unit_latency : bool;  (** no model given: constant 1.0 without the closure call *)
  obs_on : bool;  (** cached [Obs.Registry.enabled obs] — registries never toggle *)
  mutable loss_rate : float;
  trace : Trace.t option;
  processing_delay : float;
  next_free : float array;  (** per-node receiver availability time *)
  cap_on : bool;  (** a finite link capacity was given *)
  service : float;  (** per-message service time = 1 / capacity (0 when [cap_on] is false) *)
  queue_cap : int;  (** max backlog per directed link {e per band}, in-service message included *)
  queue_policy : queue_policy;
  bands : int;  (** priority bands on the FIFO plane; band 0 is highest *)
  mutable send_band : int;  (** band stamped on subsequent sends *)
  nslots : int;  (** [Csr.degree_sum csr] — the per-band stride of [link_free] *)
  link_free : float array;
      (** per-band, per-directed-edge (index [band * nslots + slot])
          time the band's share of the link finishes its current
          backlog; occupancy is implicit —
          [ceil ((free - now) / service)] — so a bounded FIFO
          costs no events and no allocation *)
  link_peak : int array;
      (** band-major high-water mark of the occupancy seen by arrivals
          (admitted or drop-tailed) — the per-link breakdown behind
          [max_backlog], feeding {!hottest_links} *)
  b_sent : int array;  (** per-band counters; [[||]] when [bands = 1] (global stats suffice) *)
  b_delivered : int array;
  b_dropped_link : int array;
  b_dropped_crash : int array;
  b_dropped_random : int array;
  b_dropped_queue : int array;
  mutable next_seq : int;
  rng : Prng.t;
  crashed : bool array;
  was_crashed : bool array;
      (** sticky: set by {!crash}, never cleared — the post-run record
          of which nodes a fault plan ever took down *)
  failed_links : (int * int, unit) Hashtbl.t;
  mutable failed_count : int;  (** = Hashtbl.length failed_links, kept for the send fast path *)
  tracing : bool;  (** trace <> None *)
  mutable receiver : dst:int -> src:int -> int -> unit;
  mutable traced : int array;
      (** tracing only: every message sent, indexed by its seq — a
          traced network's payload word is the seq, so the delivery
          side can stamp trace events with it *)
  mutable sent : int;
  mutable delivered : int;
  mutable dropped_link : int;
  mutable dropped_crash : int;
  mutable dropped_random : int;
  mutable dropped_queue : int;
  mutable max_backlog : int;  (** high-water mark of any link's FIFO occupancy *)
  (* What [publish] hands the registry. [published] holds [sent],
     [delivered] and the four drop counts as of the last publish;
     [unit_sends] counts unit-latency sends since then (each a 1.0 in
     [net.latency]), and [link_tally.(b)] the admitted arrivals that
     found backlog [b] (each a [b] in [net.link_queue]), up to
     [tally_top]. The tally is only kept with [obs_on]. *)
  published : int array;
  mutable unit_sends : int;
  mutable link_tally : int array;
  mutable tally_top : int;
  obs : Obs.Registry.t;
  m_sent : Obs.Registry.counter;
  m_delivered : Obs.Registry.counter;
  m_dropped_link : Obs.Registry.counter;
  m_dropped_crash : Obs.Registry.counter;
  m_dropped_random : Obs.Registry.counter;
  m_dropped_queue : Obs.Registry.counter;
  h_latency : Obs.Registry.histogram;
  h_queue_depth : Obs.Registry.histogram;
  h_link_queue : Obs.Registry.histogram;
}

(* -- delivery sink ------------------------------------------------------ *)

let emit t kind ~src ~dst ~seq =
  match t.trace with
  | None -> ()
  | Some tr -> Trace.record tr { Trace.time = Sim.now t.sim; kind; src; dst; seq }

let deliver t ~src ~dst payload =
  let band, payload =
    if t.bands > 1 then (payload lsr band_shift, payload land band_payload_mask) else (0, payload)
  in
  (* under tracing the payload is the message's seq (see [park]) *)
  (* [dst] came off a CSR row, so it is in range *)
  if Array.unsafe_get t.crashed dst then begin
    t.dropped_crash <- t.dropped_crash + 1;
    if t.bands > 1 then t.b_dropped_crash.(band) <- t.b_dropped_crash.(band) + 1;
    emit t Trace.Dropped_crash ~src ~dst ~seq:payload
  end
  else begin
    t.delivered <- t.delivered + 1;
    if t.bands > 1 then t.b_delivered.(band) <- t.b_delivered.(band) + 1;
    if t.tracing then begin
      emit t Trace.Delivered ~src ~dst ~seq:payload;
      t.receiver ~dst ~src (Array.unsafe_get t.traced payload)
    end
    else t.receiver ~dst ~src payload
  end

(* Publish the counts gained since the last call. [Sim] calls this
   when a run returns and after a step: nothing on the message path
   records into the registry, apart from a drawn latency and a receiver
   queue depth, which no capacity stream or unit-latency flood takes.
   Counters only add; the histogram tallies go in by value, which gives
   the sums the per-message order gave because they are integers. *)
let publish t =
  if t.obs_on then begin
    let p = t.published in
    let delta i c v =
      Obs.Registry.add c (v - p.(i));
      p.(i) <- v
    in
    delta 0 t.m_sent t.sent;
    delta 1 t.m_delivered t.delivered;
    delta 2 t.m_dropped_link t.dropped_link;
    delta 3 t.m_dropped_crash t.dropped_crash;
    delta 4 t.m_dropped_random t.dropped_random;
    delta 5 t.m_dropped_queue t.dropped_queue;
    Obs.Registry.observe_n t.h_latency 1.0 ~n:t.unit_sends;
    t.unit_sends <- 0;
    for b = 0 to t.tally_top do
      let c = t.link_tally.(b) in
      if c > 0 then begin
        Obs.Registry.observe_n t.h_link_queue (float_of_int b) ~n:c;
        t.link_tally.(b) <- 0
      end
    done;
    t.tally_top <- -1
  end

(* FIFO receiver queue: one message per processing_delay *)
let queue_processing t ~src ~dst ~tag ~payload =
  let now = Sim.now t.sim in
  let start = Float.max now t.next_free.(dst) in
  let finish = start +. t.processing_delay in
  if Obs.Registry.enabled t.obs then
    Obs.Registry.observe t.h_queue_depth ((start -. now) /. t.processing_delay);
  t.next_free.(dst) <- finish;
  Array.unsafe_set t.cell 0 finish;
  Sim.schedule_message_cell t.sim ~src ~dst ~tag ~payload

let arrive t ~src ~dst payload =
  if t.processing_delay > 0.0 then queue_processing t ~src ~dst ~tag:tag_deliver ~payload
  else deliver t ~src ~dst payload

(* A fan-out event fires: its messages arrive one by one in row order,
   each with the crash check and receiver queueing of its own event.
   The step counted the first; [Sim.count_message] counts the rest
   just before each runs, so [Sim.events_processed] reads in a
   receiver what it would have read with one event per message. *)
let expand t ~src ~except payload =
  let off = Csr.offsets t.csr and nbr = Csr.neighbor_array t.csr in
  let first = ref true in
  for i = Bigarray.Array1.unsafe_get off src to Bigarray.Array1.unsafe_get off (src + 1) - 1 do
    let dst = Bigarray.Array1.unsafe_get nbr i in
    if dst <> except then begin
      if !first then first := false else Sim.count_message t.sim;
      arrive t ~src ~dst payload
    end
  done

let handle t ~src ~dst ~tag ~payload =
  if tag = tag_arrival then arrive t ~src ~dst payload
  else if tag = tag_fanout then expand t ~src ~except:dst payload
  else deliver t ~src ~dst payload

let create ~sim ~csr ?latency ?(loss_rate = 0.0)
    ?(processing_delay = 0.0) ?link_capacity ?(queue_cap = max_int)
    ?(queue_policy = Drop_tail) ?(bands = 1) ?trace
    ?(obs = Obs.Registry.nil) () =
  (* written so that a NaN fails too *)
  if not (loss_rate >= 0.0 && loss_rate < 1.0) then
    invalid_arg "Network.create: loss_rate outside [0,1)";
  if processing_delay < 0.0 then invalid_arg "Network.create: negative processing_delay";
  if not (processing_delay < infinity) then
    invalid_arg "Network.create: processing_delay is NaN or infinite";
  let capacity = match link_capacity with Some c -> c | None -> 0.0 in
  (match link_capacity with
  | Some c when not (c > 0.0) || not (Float.is_finite c) ->
      invalid_arg "Network.create: link_capacity must be a positive finite rate"
  | _ -> ());
  if queue_cap < 1 then invalid_arg "Network.create: queue_cap must be at least 1";
  if bands < 1 || bands > max_bands then
    invalid_arg (Printf.sprintf "Network.create: bands must be in [1, %d]" max_bands);
  let cap_on = capacity > 0.0 in
  let service = if cap_on then 1.0 /. capacity else 0.0 in
  let nslots = Csr.degree_sum csr in
  let t =
    {
      sim;
      cell = Sim.time_cell sim;
      csr;
      latency = (match latency with Some l -> l | None -> constant_latency 1.0);
      unit_latency = latency = None;
      obs_on = Obs.Registry.enabled obs;
      loss_rate;
      trace;
      processing_delay;
      next_free = Array.make (Csr.n csr) 0.0;
      cap_on;
      service;
      queue_cap;
      queue_policy;
      bands;
      (* default to the lowest band: data traffic needs no opt-in, and a
         control plane opts {e up} around each burst via set_send_band *)
      send_band = bands - 1;
      nslots;
      link_free = (if cap_on then Array.make (bands * nslots) 0.0 else [||]);
      link_peak = (if cap_on then Array.make (bands * nslots) 0 else [||]);
      b_sent = (if bands > 1 then Array.make bands 0 else [||]);
      b_delivered = (if bands > 1 then Array.make bands 0 else [||]);
      b_dropped_link = (if bands > 1 then Array.make bands 0 else [||]);
      b_dropped_crash = (if bands > 1 then Array.make bands 0 else [||]);
      b_dropped_random = (if bands > 1 then Array.make bands 0 else [||]);
      b_dropped_queue = (if bands > 1 then Array.make bands 0 else [||]);
      next_seq = 0;
      rng = Sim.fork_rng sim;
      crashed = Array.make (Csr.n csr) false;
      was_crashed = Array.make (Csr.n csr) false;
      failed_links = Hashtbl.create 16;
      failed_count = 0;
      tracing = trace <> None;
      receiver = (fun ~dst:_ ~src:_ _ -> ());
      traced = [||];
      sent = 0;
      delivered = 0;
      dropped_link = 0;
      dropped_crash = 0;
      dropped_random = 0;
      dropped_queue = 0;
      max_backlog = 0;
      published = Array.make 6 0;
      unit_sends = 0;
      link_tally = [||];
      tally_top = -1;
      obs;
      m_sent = Obs.Registry.counter obs "net.sent";
      m_delivered = Obs.Registry.counter obs "net.delivered";
      m_dropped_link = Obs.Registry.counter obs "net.dropped_link";
      m_dropped_crash = Obs.Registry.counter obs "net.dropped_crash";
      m_dropped_random = Obs.Registry.counter obs "net.dropped_random";
      m_dropped_queue = Obs.Registry.counter obs "net.dropped_queue";
      h_latency = Obs.Registry.histogram obs "net.latency" ~bounds:Obs.Registry.time_bounds;
      h_queue_depth =
        Obs.Registry.histogram obs "net.queue_depth" ~bounds:Obs.Registry.depth_bounds;
      h_link_queue =
        Obs.Registry.histogram obs "net.link_queue" ~bounds:Obs.Registry.depth_bounds;
    }
  in
  (* one network per simulator: the Sim message sink is ours alone,
     and so is the publish that runs when the simulator's run returns *)
  Sim.set_message_handler sim
    ~publish:(fun () -> publish t)
    (fun ~src ~dst ~tag ~payload -> handle t ~src ~dst ~tag ~payload);
  t

let csr t = t.csr

let sim t = t.sim

let set_receiver t f = t.receiver <- f

let link_key u v = (min u v, max u v)

let is_crashed t v = t.crashed.(v)

let crash t v =
  if v < 0 || v >= Csr.n t.csr then invalid_arg "Network.crash: vertex out of range";
  if not t.crashed.(v) then Obs.Registry.event t.obs Obs.Registry.Crash ~node:v ~info:0;
  t.crashed.(v) <- true;
  t.was_crashed.(v) <- true

let recover t v =
  if v < 0 || v >= Csr.n t.csr then invalid_arg "Network.recover: vertex out of range";
  if t.crashed.(v) then Obs.Registry.event t.obs Obs.Registry.Recover ~node:v ~info:0;
  t.crashed.(v) <- false

let alive_mask t = Array.map not t.crashed

let ever_crashed t = Array.copy t.was_crashed

let fail_link t u v =
  if not (Csr.mem_edge t.csr u v) then invalid_arg "Network.fail_link: no such edge";
  if not (Hashtbl.mem t.failed_links (link_key u v)) then begin
    Obs.Registry.event t.obs Obs.Registry.Link_down ~node:u ~info:v;
    Hashtbl.replace t.failed_links (link_key u v) ();
    t.failed_count <- t.failed_count + 1
  end

let restore_link t u v =
  if not (Csr.mem_edge t.csr u v) then invalid_arg "Network.restore_link: no such edge";
  if Hashtbl.mem t.failed_links (link_key u v) then begin
    Obs.Registry.event t.obs Obs.Registry.Link_up ~node:u ~info:v;
    Hashtbl.remove t.failed_links (link_key u v);
    t.failed_count <- t.failed_count - 1
  end

let heal t =
  (* sorted so the Link_up event order is independent of hash layout *)
  let keys = Hashtbl.fold (fun k () acc -> k :: acc) t.failed_links [] in
  List.iter (fun (u, v) -> restore_link t u v) (List.sort compare keys)

let link_failed t u v = Hashtbl.mem t.failed_links (link_key u v)

let loss_rate t = t.loss_rate

let set_loss_rate t r =
  if not (r >= 0.0 && r < 1.0) then invalid_arg "Network.set_loss_rate: loss_rate outside [0,1)";
  if r <> t.loss_rate then
    Obs.Registry.event t.obs Obs.Registry.Loss_rate ~node:0
      ~info:(int_of_float (Float.round (r *. 1e6)));
  t.loss_rate <- r

(* -- bounded per-link FIFO ---------------------------------------------- *)

(* With a finite capacity, directed edge [eidx] serves one message per
   [service] time units; [link_free.(band * nslots + eidx)] is when the
   band's share of its current backlog drains. Occupancy is recovered
   arithmetically from that single float — no departure events, no
   allocation — and the admission decision depends only on [now] and
   prior sends on the same link, both of which the Calendar and Heap
   engines agree on, so queued streams stay byte-identical across
   engines.

   With [bands > 1], a band-[b] arrival waits behind the backlogs of
   every band of equal or higher priority (0..b) but never behind a
   lower one — strict priority with at most the one message already in
   service ahead of the high band, the standard zero-preemption model.
   A message already admitted keeps its departure time: priority steers
   future admissions, it does not recall the past. Occupancy and
   [queue_cap] are per band, so a saturated bulk band cannot drop-tail
   the control band. *)
let[@inline] link_backlog_band t ~band ~eidx ~now =
  let free = Array.unsafe_get t.link_free ((band * t.nslots) + eidx) in
  if free > now then int_of_float (Float.ceil (((free -. now) /. t.service) -. 1e-9)) else 0

(* one more admitted arrival that found [backlog] ahead of it *)
let[@inline] tally_backlog t backlog =
  if backlog >= Array.length t.link_tally then begin
    let a = Array.make (max 64 (2 * backlog)) 0 in
    Array.blit t.link_tally 0 a 0 (Array.length t.link_tally);
    t.link_tally <- a
  end;
  Array.unsafe_set t.link_tally backlog (Array.unsafe_get t.link_tally backlog + 1);
  if backlog > t.tally_top then t.tally_top <- backlog

(* Departure time of the admitted message, or [-1.0] for a drop-tail
   rejection (full queue under [Drop_tail]; [Block] always admits).
   [@inline] keeps the departure unboxed on its way to the time cell. *)
let[@inline] link_admit t ~band ~eidx ~now =
  let backlog = link_backlog_band t ~band ~eidx ~now in
  let slot = (band * t.nslots) + eidx in
  (* the per-link peak counts rejected arrivals too: a saturated link
     that drop-tails everything is the hottest link there is *)
  if backlog > Array.unsafe_get t.link_peak slot then Array.unsafe_set t.link_peak slot backlog;
  if backlog >= t.queue_cap && t.queue_policy = Drop_tail then -1.0
  else begin
    if backlog > t.max_backlog then t.max_backlog <- backlog;
    if t.obs_on then tally_backlog t backlog;
    (* start behind every equal-or-higher-priority backlog on this link;
       for [bands = 1] the loop reads the one float the old engine read,
       so the arithmetic — and the bytes downstream — are unchanged *)
    let start = ref now in
    for b = 0 to band do
      let f = Array.unsafe_get t.link_free ((b * t.nslots) + eidx) in
      if f > !start then start := f
    done;
    let depart = !start +. t.service in
    Array.unsafe_set t.link_free slot depart;
    depart
  end

(* A traced network sends each message's seq as the payload and parks
   the message here under that seq, so the delivery side can stamp its
   trace event. Seqs are dense — every send takes the next one — so the
   store is a doubling array that only ever grows at its end. *)
let park t seq msg =
  if seq = Array.length t.traced then begin
    let a = Array.make (max 1024 (2 * seq)) 0 in
    Array.blit t.traced 0 a 0 seq;
    t.traced <- a
  end;
  Array.unsafe_set t.traced seq msg

(* The one send path. The edge and source-crash preconditions are the
   caller's; everything after is the steady-state hot path — no
   closures, no tuples (the failed-links probe is skipped while the
   table is empty), no allocation once the event pool is warm and
   tracing is off. [eidx] is the directed edge's CSR slot, consulted
   only under a finite [link_capacity]. *)
let unchecked_send t ~src ~dst ~eidx msg =
  let band = t.send_band in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.sent <- t.sent + 1;
  if t.bands > 1 then t.b_sent.(band) <- t.b_sent.(band) + 1;
  if t.tracing then begin
    park t seq msg;
    emit t Trace.Sent ~src ~dst ~seq
  end;
  if t.failed_count > 0 && link_failed t src dst then begin
    t.dropped_link <- t.dropped_link + 1;
    if t.bands > 1 then t.b_dropped_link.(band) <- t.b_dropped_link.(band) + 1;
    emit t Trace.Dropped_link ~src ~dst ~seq
  end
  else if t.loss_rate > 0.0 && Prng.float t.rng 1.0 < t.loss_rate then begin
    t.dropped_random <- t.dropped_random + 1;
    if t.bands > 1 then t.b_dropped_random.(band) <- t.b_dropped_random.(band) + 1;
    emit t Trace.Dropped_random ~src ~dst ~seq
  end
  else begin
    let depart = if t.cap_on then link_admit t ~band ~eidx ~now:(Sim.now t.sim) else 0.0 in
    if depart < 0.0 then begin
      t.dropped_queue <- t.dropped_queue + 1;
      if t.bands > 1 then t.b_dropped_queue.(band) <- t.b_dropped_queue.(band) + 1;
      emit t Trace.Dropped_queue ~src ~dst ~seq
    end
    else begin
      let delay =
        if t.unit_latency then begin
          t.unit_sends <- t.unit_sends + 1;
          1.0
        end
        else begin
          let d = t.latency t.rng ~src ~dst in
          if not (d >= 0.0 && d < infinity) then
            invalid_arg
              (if Float.is_nan d then "Network.send: latency model produced a NaN delay"
               else if d < 0.0 then "Network.send: latency model produced a negative delay"
               else "Network.send: latency model produced an infinite delay");
          if t.obs_on then Obs.Registry.observe t.h_latency d;
          d
        end
      in
      let payload = if t.tracing then seq else msg in
      let payload = if t.bands > 1 then (band lsl band_shift) lor payload else payload in
      if t.cap_on then begin
        Array.unsafe_set t.cell 0 (depart +. delay);
        Sim.schedule_message_cell t.sim ~src ~dst ~tag:tag_arrival ~payload
      end
      else Sim.schedule_message_after t.sim ~delay ~src ~dst ~tag:tag_arrival ~payload
    end
  end

let send t ~src ~dst msg =
  let eidx = Csr.edge_index t.csr src dst in
  if eidx < 0 then invalid_arg "Network.send: no such edge";
  if t.crashed.(src) then invalid_arg "Network.send: source is crashed";
  if msg < 0 || msg > band_payload_mask then invalid_arg "Network.send: message outside [0, 2^58)";
  unchecked_send t ~src ~dst ~eidx msg

(* Single-edge send with the caller-supplied CSR slot: the
   tree-forwarding hot path, where the packing already carries each
   parent→child slot so the [edge_index] binary search that is
   [send]'s membership check is not paid. *)
let send_int t ~src ~dst ~eidx msg =
  if Array.unsafe_get t.crashed src then invalid_arg "Network.send_int: source is crashed";
  unchecked_send t ~src ~dst ~eidx msg

(* One pooled event for a whole fan-out of [d >= 1] messages, taken
   when no message needs a decision of its own at send time (unit
   latency, no capacity, loss, failed link or trace). The d messages
   are counted as sent now, as d [unchecked_send]s would count them,
   and [expand] replays their arrivals in row order when the event
   fires; Sim's fan-out events say why that order is exact. The
   event's dst is the excluded neighbour, or [src] for none: no row
   holds its own vertex. *)
let send_fanout t ~src ~except ~d msg =
  let band = t.send_band in
  t.next_seq <- t.next_seq + d;
  t.sent <- t.sent + d;
  t.unit_sends <- t.unit_sends + d;
  if t.bands > 1 then t.b_sent.(band) <- t.b_sent.(band) + d;
  let payload = if t.bands > 1 then (band lsl band_shift) lor msg else msg in
  Sim.schedule_message_after t.sim ~delay:1.0 ~src ~dst:except ~tag:tag_fanout ~payload

(* The fan-out: the flooding hot loop calls this once per delivered
   message. Pass [-1] for no exclusion. *)
let send_neighbors_except t ~src ~except msg =
  if src < 0 || src >= Csr.n t.csr then
    invalid_arg "Network.send_neighbors_except: vertex out of range";
  if Array.unsafe_get t.crashed src then
    invalid_arg "Network.send_neighbors_except: source is crashed";
  if
    (not t.cap_on) && t.unit_latency && (not t.tracing) && t.loss_rate = 0.0
    && t.failed_count = 0
  then begin
    let skip = except >= 0 && except < Csr.n t.csr && Csr.mem_edge t.csr src except in
    let d = Csr.degree t.csr src - if skip then 1 else 0 in
    if d > 0 then send_fanout t ~src ~except:(if skip then except else src) ~d msg
  end
  else begin
    (* edges come from our own frozen CSR row, so the per-neighbour
       edge membership check that [send] must do is free here; the
       loop index [i] is the directed edge's CSR slot, the per-link
       queue key *)
    let off = Csr.offsets t.csr and nbr = Csr.neighbor_array t.csr in
    for i = Bigarray.Array1.unsafe_get off src to Bigarray.Array1.unsafe_get off (src + 1) - 1 do
      let dst = Bigarray.Array1.unsafe_get nbr i in
      if dst <> except then unchecked_send t ~src ~dst ~eidx:i msg
    done
  end

let stats t =
  {
    sent = t.sent;
    delivered = t.delivered;
    dropped_link = t.dropped_link;
    dropped_crash = t.dropped_crash;
    dropped_random = t.dropped_random;
    dropped_queue = t.dropped_queue;
  }

let queue_policy t = t.queue_policy

let bands t = t.bands

let send_band t = t.send_band

let set_send_band t band =
  if band < 0 || band >= t.bands then invalid_arg "Network.set_send_band: band out of range";
  t.send_band <- band

let band_stats t ~band =
  if band < 0 || band >= t.bands then invalid_arg "Network.band_stats: band out of range";
  if t.bands = 1 then
    {
      sent = t.sent;
      delivered = t.delivered;
      dropped_link = t.dropped_link;
      dropped_crash = t.dropped_crash;
      dropped_random = t.dropped_random;
      dropped_queue = t.dropped_queue;
    }
  else
    {
      sent = t.b_sent.(band);
      delivered = t.b_delivered.(band);
      dropped_link = t.b_dropped_link.(band);
      dropped_crash = t.b_dropped_crash.(band);
      dropped_random = t.b_dropped_random.(band);
      dropped_queue = t.b_dropped_queue.(band);
    }

let max_queue_backlog t = t.max_backlog

(* Would a send on this directed edge reach a live queue right now?
   Evaluated at send time, the same instant the network itself checks
   link state — so a protocol branching on it and the drop accounting
   can never disagree. A full Drop_tail FIFO counts as unusable; Block
   always admits, so pressure alone never trips the fallback. *)
let link_usable t ~src ~dst ~eidx =
  (not (t.failed_count > 0 && link_failed t src dst))
  && (not (Array.unsafe_get t.crashed dst))
  && ((not t.cap_on)
     || t.queue_policy = Block
     || link_backlog_band t ~band:t.send_band ~eidx ~now:(Sim.now t.sim) < t.queue_cap)

let hottest_links t ~max:limit =
  if (not t.cap_on) || limit <= 0 then []
  else begin
    let peak = Array.make limit 0 in
    let lsrc = Array.make limit 0 in
    let ldst = Array.make limit 0 in
    let filled = ref 0 in
    let slot = ref 0 in
    for src = 0 to Csr.n t.csr - 1 do
      Csr.iter_neighbors t.csr src (fun dst ->
          (* a link's heat is its hottest band *)
          let p = ref (Array.unsafe_get t.link_peak !slot) in
          for b = 1 to t.bands - 1 do
            let q = Array.unsafe_get t.link_peak ((b * t.nslots) + !slot) in
            if q > !p then p := q
          done;
          let p = !p in
          incr slot;
          if p > 0 && (!filled < limit || p > peak.(limit - 1)) then begin
            (* insert after equal peaks: slots walk ascending (src, dst),
               so ties resolve to the lexicographically first link —
               deterministic whatever the engine or pool size *)
            let i = ref 0 in
            while !i < !filled && peak.(!i) >= p do
              incr i
            done;
            if !i < limit then begin
              let last = min !filled (limit - 1) in
              for j = last downto !i + 1 do
                peak.(j) <- peak.(j - 1);
                lsrc.(j) <- lsrc.(j - 1);
                ldst.(j) <- ldst.(j - 1)
              done;
              peak.(!i) <- p;
              lsrc.(!i) <- src;
              ldst.(!i) <- dst;
              if !filled < limit then incr filled
            end
          end)
    done;
    let acc = ref [] in
    for i = !filled - 1 downto 0 do
      acc := (lsrc.(i), ldst.(i), peak.(i)) :: !acc
    done;
    !acc
  end
