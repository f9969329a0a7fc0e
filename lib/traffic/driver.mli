(** The sustained-traffic driver: multi-source chunk streams pushed
    through a (possibly capacity-limited) network.

    Each chunk of a {!Workload} spreads from its source as one int per
    message — the same zero-allocation fast path as
    {!Flood.Flooding.run_csr_env} — with per-(chunk, node) first-
    delivery dedup, under the workload's {!Workload.dissemination}
    strategy: [Flood] re-sends on every edge, [Trees] stripes chunks
    round-robin over the source's packed edge-disjoint spanning trees
    ({!Graph_core.Tree_pack} / {!Flood.Trees}, n−1 messages per chunk
    with flood fallback on dead tree edges), [Gossip] pushes to random
    neighbours under a TTL. The network half of the configuration
    (latency, loss, link capacity, queue bound/policy, engine, seed,
    static faults) comes from the {!Flood.Env}; the traffic half
    (sources, arrival process, chunk count, rate, dissemination) from
    the {!Workload}. A {!Chaos.Plan} can be scheduled mid-stream to
    measure degradation and recovery under sustained load, and a
    {!Reconfig} timeline replays controller epochs against the running
    stream: membership flips become crashes/recoveries on the union
    snapshot, link flips fail/restore wires, [Trees] packs are
    re-striped in place ({!Graph_core.Tree_pack.patch} first, full
    masked re-pack on rebuild epochs or when the patch cannot finish),
    and — when the env gives the network more than one priority band —
    each commit floods a band-0 control notice that overtakes the
    queued data backlog.

    The run is deterministic in [(env, workload, plan, reconfig)]: the
    injection schedule is precomputed from the run seed, dissemination
    rides the simulator's deterministic ordering (tree packings and
    patches are themselves deterministic, gossip draws from the sim's
    forked stream), and the result — including the [lhg-traffic/1]
    document {!emit} writes — is byte-identical across engines and
    [--jobs] counts (the domain pool only parallelises tree packing,
    whose output is pool-invariant; mid-run re-striping is always
    sequential). *)

type result = {
  workload : Workload.t;
  sources : int list;  (** resolved origin nodes, in workload order *)
  chunks_injected : int;
  chunks_skipped : int;
      (** chunks whose source was crashed at their arrival instant
          (possible only under a chaos plan) *)
  deliveries : int;  (** first deliveries at non-source nodes *)
  wire_messages : int;  (** total sends, duplicates included *)
  dropped_queue : int;  (** drop-tailed by full link FIFOs *)
  dropped_link : int;
  dropped_crash : int;
  dropped_random : int;
  duration : float;  (** virtual time when the stream drained *)
  throughput : float;  (** deliveries per virtual time unit *)
  delivery_fraction : float;
      (** delivered (alive node, chunk) pairs over obligated pairs —
          alive means alive at the end of the run *)
  all_covered : bool;  (** every injected chunk reached every survivor *)
  p50_delay : float;
      (** exact percentiles of per-delivery delay (first delivery time
          minus the chunk's injection time); source receipt is not a
          sample *)
  p95_delay : float;
  p99_delay : float;
  max_delay : float;
  max_queue_backlog : int;  (** deepest any single link FIFO ever got *)
  hot_links : (int * int * int) list;
      (** the ≤ 5 hottest directed links as [(src, dst, peak)] —
          {!Netsim.Network.hottest_links} over the run; [[]] without a
          finite capacity *)
  tree_fallbacks : int;
      (** [Trees] dissemination only: distinct escalation points — a
          (source, tree, node) where forwarding fell back to scoped
          flood because a tree edge was dead. Counted once no matter
          how many chunks stripe over the broken tree, so it equals
          the number of distinct fault sites the stream discovered
          (0 = every chunk rode its tree clean; always 0 under
          [Flood]/[Gossip]) *)
  tree_fallback_bursts : int;
      (** raw escalation events before deduplication: every forward
          that fell back, once per chunk per hop. Grows with traffic
          volume over a broken tree where {!tree_fallbacks} does not;
          [bursts >= fallbacks] always *)
  recovery_time : float;
      (** earliest full-coverage completion among chunks injected after
          the last chaos-plan or reconfig event, measured from the last
          degrading event (crash / link down / partition / positive
          loss rate / leave) — the time for the stream to run clean
          again. [-1] when there is no degrading event or no clean
          chunk afterwards. *)
  completions : float array;
      (** per chunk, source-major (chunk [j] of the [i]-th source at
          [i × chunks_per_source + j]): its last first delivery minus
          its injection time, [0] when no other node received it and
          [-1] for a skipped chunk. One chunk per source makes the run
          a multi-origin flood and this its per-origin completion.
          {!emit} does not print it. *)
  epochs_applied : int;  (** reconfig commits that fired before the stream drained *)
  restripe_patched : int;
      (** (epoch, source) re-stripes {!Graph_core.Tree_pack.patch}
          finished incrementally — on a repair-only churn trace this
          should be {e all} of them *)
  restripe_repacked : int;
      (** (epoch, source) re-stripes that fell back to a full masked
          pack: rebuild epochs, plus any patch that could not finish *)
  control_messages : int;
      (** band-0 sends (epoch-commit control floods); [0] when the env
          has a single band or no reconfig timeline *)
}

val run_csr_env :
  env:Flood.Env.t ->
  ?plan:Chaos.Plan.t ->
  ?reconfig:Reconfig.t ->
  csr:Graph_core.Csr.t ->
  workload:Workload.t ->
  unit ->
  result
(** Run the workload over a frozen snapshot to completion (the
    simulator drains; there is no horizon — finite streams always
    terminate). A [?reconfig] timeline's masks index the snapshot's
    edge slots, so it must be built over this same [csr]. Consumes
    every [Env] field; [pool] only parallelises the [Trees] packing of
    the sources, whose output is pool-invariant. Registers
    [traffic.delay] (time bounds), [traffic.chunks],
    [traffic.deliveries] and [traffic.throughput] into an enabled
    [env.obs]; the network adds its own [net.*] series including the
    [net.link_queue] occupancy histogram.
    @raise Invalid_argument on an invalid workload
    ({!Workload.validate}), a source crashed at t = 0, a plan that
    fails {!Chaos.Plan.validate}, a reconfig whose [union_n] differs
    from the topology or that fails {!Reconfig.validate}, or a
    workload whose dedup table would exceed 2^28 (chunk, node)
    pairs. *)

val schema : string
(** ["lhg-traffic/1"]. *)

val emit : Obs.Stream.t -> result -> unit
(** Write the result body — workload, chunk/wire/delay/queue/reconfig
    sections, duration, summary — into an open stream whose header
    (topology, sizes, seed) the caller owns. Contains no wall-clock
    fields, so equal runs emit byte-identical bodies; the standalone
    [lhg-traffic/1] document is assembled by
    [Scenario.report_traffic]. *)
