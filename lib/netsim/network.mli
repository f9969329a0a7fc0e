(** Message-passing network layer over a frozen CSR topology.

    Sits on top of {!Sim}: sending enqueues a delivery event after a
    latency drawn from the latency model. Failure injection covers the
    crash-recover node model (a crashed node neither sends nor receives
    until it {!recover}s), fail-stop links that can come back up
    ({!restore_link}, {!heal}), and i.i.d. probabilistic message loss
    whose rate can change mid-run ({!set_loss_rate}). All drops are
    counted in {!stats}; every fault and heal is emitted as an
    {!Obs.Registry} span event.

    {2 Messages}

    A message is one int in [\[0, 2^58)]. Protocols encode what they
    send into it — a hop count, a TTL, a chunk id with a flag bit, a
    tag over an index into protocol-local state (as [Assemble.Wire]
    does) — and decode it in their receiver. There is one
    send path, one receiver ({!set_receiver}) and one fan-out
    ({!send_neighbors_except}); {!send} rejects a message outside the
    range, the unchecked fast paths ({!send_int},
    {!send_neighbors_except}) take it on trust.

    {2 Link capacity and FIFO queues}

    By default every link has infinite bandwidth: messages only pay the
    latency model. With a finite [?link_capacity] (messages per time
    unit, per directed link), each directed edge becomes a
    FIFO-serviced channel: a message entering a busy link waits behind
    the backlog, departs one service time ([1/capacity]) after its
    predecessor, and arrives at departure + latency. [?queue_cap]
    bounds the backlog (the in-service message included); an arrival
    finding the queue full is either drop-tailed and counted
    [dropped_queue] ({!Drop_tail}, the default) or admitted anyway
    ({!Block} — an infinite buffer whose pressure shows up as delay and
    in the [net.link_queue] histogram rather than as loss).

    Queue state is one float per directed edge — the time the link
    drains — and occupancy is recovered arithmetically from it, so the
    bounded FIFO adds no events, no allocation, and is byte-identical
    across the Calendar and Heap engines. FIFO order holds per link:
    two messages sent on the same directed edge are delivered in send
    order (under a deterministic latency model; a random latency model
    can still reorder them in flight, exactly as without capacity).

    {2 Priority bands}

    [?bands] (1–4, default 1) splits each link's FIFO plane into
    strict-priority bands, band 0 highest. Every send is stamped with
    the network's current {!send_band} (default: the lowest band, so
    plain data traffic needs no opt-in); a control plane raises the
    band around its own bursts with {!set_send_band}. Admission of a
    band-[b] message waits behind the backlogs of every band of equal
    or higher priority but never behind a lower band — so the high
    band's delay is bounded by at most the one message already in
    service, the standard non-preemptive priority model. Order within
    a band stays FIFO; [queue_cap] bounds each band separately (a
    saturated bulk band cannot drop-tail the control band); and every
    band serves [link_capacity] messages per time unit. Per-band
    deliveries and drops are reported by {!band_stats}.

    The whole plane keeps the zero-event discipline — one float per
    (band, directed edge) — and stays byte-identical across engines.
    A single-band network is bit-for-bit the pre-band engine. With
    [bands > 1] the band rides the event payload word above the
    message — the reason messages stop at 2{^58}.

    {2 Recovery semantics}

    Crash state is evaluated {e at delivery time}, not at send time. A
    message in flight to a node that is crashed when the message lands
    is dropped and counted [dropped_crash]; a message in flight to a
    node that has {!recover}ed before its delivery event fires is
    delivered normally and counted [delivered] — the crash window only
    swallows what actually lands inside it. Senders are checked at send
    time: {!send} from a currently crashed source raises.

    {2 Cost model}

    In-flight messages ride {!Sim}'s struct-of-arrays event pool as
    four words, the message itself in the payload word. With tracing
    off, a steady-state {!send} (or {!send_neighbors_except} fan-out)
    allocates nothing, with an [Obs] registry disabled or enabled and
    with or without a link capacity: a computed arrival time (departure
    plus latency, or the end of a receiver's processing queue) reaches
    the simulator through {!Sim.time_cell}, not as a boxed argument.
    Nor does a send or a delivery call into [Obs]: the network counts
    in its own fields and publishes when the run returns (see [?obs]
    below). A capacity stream allocates about 0.13 minor words per
    wire message under dune's dev profile, Obs on or off.

    A {!send_neighbors_except} fan-out takes {e one} pooled event for
    all of its messages whenever nothing about a message has to be
    decided when it is sent: the default unit latency (no [?latency]
    model), no [?link_capacity], loss rate 0, no failed link and no
    [?trace]. The network checks this on every fan-out from state it
    already holds; there is no option. The fan-out's messages are
    counted as sent at once, in {!stats}, {!band_stats}, [net.sent] and
    the [net.latency] histogram, and they arrive together one time unit
    later. When the event fires, the network runs them in ascending
    neighbour order, each with its own crash check and receiver
    queueing, so every delivery, count and trace is the same as with
    one event per message: see {!Sim}'s fan-out events for why the
    order is exact. What changes is the event count: {!Sim.pending}
    holds a flood's in-flight fan-outs, about one per relaying node,
    instead of one event per wire message. Every other send, and every
    fan-out that fails one of the conditions, takes one event per
    message. If the receiver raises mid-fan-out, the rest of that
    fan-out is dropped uncounted. A traced
    network sends each message's seq as the payload instead and keeps
    the message in an int array indexed by that seq — one word per
    message sent, which is what lets the delivery side stamp its trace
    event without changing anything the run does. A simulator hosts at
    most one network: creation installs the simulator's single message
    sink, so a second [create] on the same [sim] raises. *)

type t

type latency = Graph_core.Prng.t -> src:int -> dst:int -> float
(** Latency model: virtual time units for one message on one link. *)

val constant_latency : float -> latency

val uniform_latency : lo:float -> hi:float -> latency
(** Uniform on [\[lo, hi)].
    @raise Invalid_argument unless [0 <= lo <= hi < infinity]; a NaN
    bound fails too. *)

val exponential_latency : mean:float -> latency
(** 1 + Exp(mean−1): a floor of one time unit plus an exponential tail —
    a common WAN-ish model that keeps causality (strictly positive).
    @raise Invalid_argument unless [1 < mean < infinity]; a NaN mean
    fails too. *)

type queue_policy =
  | Drop_tail  (** a full link queue rejects the arrival (counted [dropped_queue]) *)
  | Block
      (** a full link queue admits anyway: no loss, unbounded buffer,
          pressure visible as queueing delay instead *)

type stats = {
  sent : int;  (** messages handed to the network *)
  delivered : int;  (** messages that reached a live handler *)
  dropped_link : int;  (** lost to failed links *)
  dropped_crash : int;  (** lost to crashed destinations *)
  dropped_random : int;  (** lost to the loss-rate coin *)
  dropped_queue : int;  (** drop-tailed by a full bounded link FIFO *)
}

val create :
  sim:Sim.t ->
  csr:Graph_core.Csr.t ->
  ?latency:latency ->
  ?loss_rate:float ->
  ?processing_delay:float ->
  ?link_capacity:float ->
  ?queue_cap:int ->
  ?queue_policy:queue_policy ->
  ?bands:int ->
  ?trace:Trace.t ->
  ?obs:Obs.Registry.t ->
  unit ->
  t
(** New network over a frozen topology snapshot ({!Graph_core.Csr.of_graph}
    freezes a mutable graph) — no adjacency-set graph is needed, which
    is what lets a million-node network run. Default latency is
    [constant_latency 1.0], default loss rate 0. With [?trace], every
    send and terminal outcome is recorded ({!Trace}).

    With [?obs] (default {!Obs.Registry.nil}), the network publishes
    into the registry: counters [net.sent], [net.delivered] and the
    four [net.dropped_*] reasons, the [net.latency] histogram of link
    delays, the [net.link_queue] histogram (below), the
    [net.queue_depth] histogram of receiver backlog (when
    [processing_delay > 0]), and
    [Crash]/[Recover]/[Link_down]/[Link_up]/[Loss_rate] span events for
    fault injection and healing. The counters, the unit-latency
    delays and the link backlogs are kept in the network's own fields
    and published when the simulator's run returns (or a handler
    raises) and after each {!Sim.step}: the network hands {!Sim} its
    publish function with its message handler, so nothing on the
    message path calls into [Obs]. A drawn latency (a [?latency]
    model), a receiver queue depth and a span event are recorded as
    they happen. Read the registry between runs, not from inside a
    receiver. A disabled registry costs one branch per record and
    allocates nothing.

    [?loss_rate] must lie in [\[0, 1)] and [?processing_delay] be
    finite and non-negative; a NaN fails both.

    [?processing_delay] (default 0) models receiver contention: each
    node handles one message per [processing_delay] time units, queueing
    arrivals FIFO — so a node's effective latency grows with its degree
    and message pressure, which is what makes constant-degree topologies
    attractive beyond edge counts.

    [?link_capacity] (default infinite) turns each directed edge into a
    bounded FIFO channel serving [link_capacity] messages per time
    unit; [?queue_cap] (default unbounded, must be ≥ 1) bounds its
    backlog and [?queue_policy] (default {!Drop_tail}) picks what a
    full queue does — see the link-capacity section above. The
    [net.link_queue] histogram records the occupancy seen by each
    admitted message.

    [?bands] (default 1) configures the strict-priority queueing
    plane — see the priority-bands section above.
    @raise Invalid_argument if [loss_rate] is outside [\[0, 1)] or NaN,
    [processing_delay] is negative, NaN or infinite, [link_capacity] is
    not a positive finite rate, [queue_cap < 1], or [bands] is outside
    [\[1, 4\]]. *)

val csr : t -> Graph_core.Csr.t
(** The frozen topology snapshot every send checks against. *)

val sim : t -> Sim.t

val set_receiver : t -> (dst:int -> src:int -> int -> unit) -> unit
(** Install the protocol's receive handler (one per network). *)

val send : t -> src:int -> dst:int -> int -> unit
(** Send a message over the edge (src,dst).
    @raise Invalid_argument if no such edge exists, [src] is crashed,
    the message is outside [\[0, 2^58)], or the latency model returns
    a negative, NaN or infinite delay. The message is silently
    dropped (and counted) on link failure, the loss coin, or a
    crashed/crashing destination at delivery time. *)

val send_neighbors_except : t -> src:int -> except:int -> int -> unit
(** Send the message over every edge incident to [src] except the one
    to [except] ([-1] for none — the don't-echo-back rule of flooding),
    in ascending neighbour order: exactly {!send} per neighbour, minus
    the per-neighbour edge-membership check (the edges come from the
    network's own topology snapshot) and the message range check. The
    flooding hot path. Under unit latency with no capacity, loss,
    failed link or trace, the whole fan-out is one pooled event (see
    the cost model above); the observable run is the same.
    @raise Invalid_argument if [src] is out of range or crashed. *)

val send_int : t -> src:int -> dst:int -> eidx:int -> int -> unit
(** One message over the directed edge whose CSR slot is [eidx] — the
    tree-forwarding hot path, where the caller (a
    {!Graph_core.Tree_pack}) already holds each parent→child slot, so
    the [edge_index] search that is [send]'s membership check is not
    paid. Same counters, drop decisions and RNG discipline as {!send}.
    [eidx] must be the slot of (src, dst) and the message in range —
    both unchecked.
    @raise Invalid_argument if [src] is crashed. *)

val link_usable : t -> src:int -> dst:int -> eidx:int -> bool
(** Would a send on this directed edge reach a live queue right now?
    [false] when the link is failed, [dst] is crashed, or a finite
    {!Drop_tail} FIFO is full ({!Block} always admits, so pressure
    alone never makes a link unusable). Evaluated at the same instant
    the network checks these on a send, so a protocol branching on it
    agrees with the drop accounting. [eidx] must be the slot of
    (src, dst) — unchecked. *)

val hottest_links : t -> max:int -> (int * int * int) list
(** The [max] directed links with the highest per-link occupancy
    high-water mark, as [(src, dst, peak)] sorted hottest first (ties
    to the lexicographically first link), links that never queued
    omitted. Unlike {!max_queue_backlog} this counts the occupancy
    seen by drop-tailed arrivals too — a saturated link rejecting
    everything is the hottest link there is. Empty without a finite
    capacity. *)

val crash : t -> int -> unit
(** Crash the node, effective immediately. Idempotent (only the first
    call emits a [Crash] span event). Messages already in flight to it
    are dropped only if they land while it is down — see the recovery
    semantics above. *)

val recover : t -> int -> unit
(** Bring a crashed node back up, effective immediately. Idempotent
    (only a transition emits a [Recover] span event). The node resumes
    receiving — including messages still in flight from before or
    during its crash window — and may send again. It does {e not}
    replay anything it missed; catch-up is the protocol's business
    (e.g. {!Flood.Reliable}'s anti-entropy). *)

val is_crashed : t -> int -> bool

val alive_mask : t -> bool array
(** Snapshot: [true] per currently live vertex. *)

val ever_crashed : t -> bool array
(** Snapshot: [true] per vertex that was {!crash}ed at least once over
    the run, whether or not it has since {!recover}ed — what lets a
    protocol audit distinguish "participated throughout" from "came
    back mid-run" without replaying the fault plan. *)

val fail_link : t -> int -> int -> unit
(** Fail the undirected link (both directions). Idempotent; the edge
    must exist in the topology. *)

val restore_link : t -> int -> int -> unit
(** Bring a failed link back up (both directions). Idempotent (only a
    transition emits a [Link_up] span event); the edge must exist in
    the topology. Messages dropped while the link was down stay lost. *)

val heal : t -> unit
(** Restore every currently failed link, in sorted link order (so the
    [Link_up] event sequence is deterministic). *)

val link_failed : t -> int -> int -> bool

val loss_rate : t -> float
(** The current i.i.d. message-loss probability. *)

val set_loss_rate : t -> float -> unit
(** Change the loss rate, effective for subsequent {!send}s (messages
    already in flight keep the coin they were tossed). Emits a
    [Loss_rate] span event when the value changes; [info] carries the
    new rate in parts per million.
    @raise Invalid_argument outside [\[0,1)] or on a NaN. *)

val stats : t -> stats
(** Cumulative counters. Under recovery, [dropped_crash] counts only
    messages that landed inside a crash window; deliveries after a
    {!recover} count as [delivered] (see the recovery semantics
    above). *)

val queue_policy : t -> queue_policy

val bands : t -> int
(** Number of priority bands (1 when none were configured). *)

val send_band : t -> int
(** The band subsequent sends are stamped with (initially the lowest
    priority, [bands − 1]). *)

val set_send_band : t -> int -> unit
(** Switch the sending band, effective for subsequent sends; messages
    already admitted keep their band. The idiom is bracketing: a
    control plane saves {!send_band}, raises to band 0 around its
    burst, and restores.
    @raise Invalid_argument outside [\[0, bands)]. *)

val band_stats : t -> band:int -> stats
(** Per-band counters: sends and send-side drops are attributed to the
    band current at send time, deliveries and crash drops to the band
    the message was stamped with. Sums over all bands equal {!stats};
    with a single band this {e is} {!stats}.
    @raise Invalid_argument outside [\[0, bands)]. *)

val max_queue_backlog : t -> int
(** High-water mark of any single link FIFO's occupancy over the run
    (0 without a finite capacity) — the queue-depth maximum that bench
    tables report. *)
