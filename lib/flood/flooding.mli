(** Deterministic flooding over the event-driven network.

    The protocol of the paper: on first receipt of the payload a node
    records it and forwards it once to every neighbour except the one it
    arrived from; duplicates are ignored. On a k-connected topology this
    delivers to every live node despite any k−1 node or link failures —
    with logarithmic latency when the topology is an LHG. *)

type result = {
  delivered : bool array;
  delivery_time : float array;  (** virtual time of first receipt; -1 if never *)
  hops : int array;  (** hop count of the first-arriving copy; -1 if never *)
  messages_sent : int;
  messages_delivered : int;
  completion_time : float;  (** latest first-delivery time *)
  max_hops : int;  (** hop radius actually realised *)
  covers_all_alive : bool;
}

val run_csr_env : env:Env.t -> csr:Graph_core.Csr.t -> source:int -> unit -> result
(** One flooding execution over a frozen snapshot under the given
    environment. The caller freezes the topology once and may flood it
    any number of times; no adjacency-set graph is involved, which is
    what lets a million-node topology from
    {!Lhg_core.Build.build_csr} flood within seconds. Consumes every
    {!Env.t} field except [pool] (a single run is sequential): static
    failures ([crashed], [failed_links]) are injected before the first
    send, then the [prepare] hook runs (a fault plan schedules its
    timeline here), then the source floods. The source must not be in
    [env.crashed]; a plan may still crash it mid-run.

    With an enabled [env.obs], the run publishes — on top of the
    network-layer [net.*] metrics — the [flood.hops] and
    [flood.completion] histograms (per-node first-arrival hop count and
    virtual time, so the exporter's p50/p95/p99 are completion
    percentiles across nodes), gauges [flood.rounds],
    [flood.completion_time] and [flood.coverage], counter
    [flood.delivered_nodes], and [Round_start]/[Round_end] span pairs
    for each hop layer.
    @raise Invalid_argument on a crashed or out-of-range source. *)
