(** The unified run environment for every flood-family protocol.

    [Env.t] bundles the whole run environment — latency, loss,
    capacity and queueing, static faults, seed, engine, registry,
    pool — into one value with a {!default} and [with_*] builders, so
    experiment drivers configure once and thread one value through
    {!Flooding.run_csr_env}, {!Reliable.run_env}, {!Gossip.run_env},
    {!Pif.run_env}, {!Runner.flood_trials_env} and the multi-chunk
    stream engine {!Traffic.Driver.run_csr_env} — and so the chaos
    auditor can inject a fault plan into any protocol without that
    protocol knowing what a plan is (the [prepare] hook).

    Every entry point takes the topology as a frozen
    {!Graph_core.Csr.t}: the caller freezes once and runs as often as
    it likes.

    {[
      let csr = Lhg_core.Build.build_csr_exn Lhg_core.Build.Kdiamond ~n:1026 ~k:4 in
      let env =
        Flood.Env.default
        |> Flood.Env.with_seed 42
        |> Flood.Env.with_loss_rate 0.05
        |> Flood.Env.with_obs registry
      in
      Flood.Flooding.run_csr_env ~env ~csr ~source:0 ()
    ]}

    Each protocol documents which fields it consumes; unused fields are
    ignored except where noted (e.g. {!Pif.run_env} rejects a non-zero
    [loss_rate] because its echo accounting assumes reliable
    channels). The closed-form {!Sync.flood_csr} takes its alive mask
    and registry directly. *)

type t = {
  latency : Netsim.Network.latency option;
      (** [None] = the network default ([constant_latency 1.0]). *)
  loss_rate : float;  (** initial i.i.d. loss probability; default 0. *)
  processing_delay : float;  (** receiver service time; default 0. *)
  link_capacity : float option;
      (** per-directed-link service rate (messages per time unit);
          [None] = infinite bandwidth. See {!Netsim.Network}'s
          link-capacity section. *)
  queue_cap : int option;
      (** bound on each link FIFO's backlog; [None] = unbounded. *)
  queue_policy : Netsim.Network.queue_policy option;
      (** what a full link queue does; [None] = the network default
          ({!Netsim.Network.Drop_tail}). *)
  bands : int;
      (** strict-priority bands on the link FIFO plane (1–4, default
          1 = no priorities). See {!Netsim.Network}'s priority-bands
          section; the scenario runner rides control-plane reconfig
          messages on band 0 above the data stream. *)
  crashed : int list;  (** nodes down before t = 0. *)
  failed_links : (int * int) list;  (** links down before t = 0. *)
  seed : int option;  (** [None] = the simulator default seed. *)
  obs : Obs.Registry.t;  (** default {!Obs.Registry.nil}. *)
  pool : Par.Pool.t option;
      (** domain pool for entry points that fan out (trial sweeps,
          chaos audits); single runs ignore it. *)
  prepare : (Netsim.Network.t -> unit) option;
      (** fault-plan / instrumentation hook, run against the freshly
          created network after the static [crashed]/[failed_links]
          injection and before the protocol's first send. One hook
          serves every protocol; {!Chaos.Exec} uses it to schedule a
          fault plan's timeline on the run's simulator. *)
  engine : Netsim.Sim.engine option;
      (** [None] = the simulator default ({!Netsim.Sim.Calendar}).
          {!Netsim.Sim.Heap} selects the reference scheduler — both
          produce identical executions; this exists for differential
          testing and benchmarking. *)
  trace : Netsim.Trace.t option;
      (** wire trace to record every send and terminal outcome into. *)
}

val default : t
(** No failures, no loss, unit latency, disabled observability,
    sequential. *)

val make :
  ?latency:Netsim.Network.latency ->
  ?loss_rate:float ->
  ?processing_delay:float ->
  ?link_capacity:float ->
  ?queue_cap:int ->
  ?queue_policy:Netsim.Network.queue_policy ->
  ?bands:int ->
  ?crashed:int list ->
  ?failed_links:(int * int) list ->
  ?seed:int ->
  ?obs:Obs.Registry.t ->
  ?pool:Par.Pool.t ->
  ?prepare:(Netsim.Network.t -> unit) ->
  ?engine:Netsim.Sim.engine ->
  ?trace:Netsim.Trace.t ->
  unit ->
  t
(** {!default} with the given fields replaced, in one call. *)

val with_latency : Netsim.Network.latency -> t -> t

val with_loss_rate : float -> t -> t

val with_processing_delay : float -> t -> t

val with_link_capacity : float -> t -> t
(** Give every directed link a finite service rate — the sustained
    traffic knob. Combine with {!with_queue_cap}/{!with_queue_policy}
    for bounded lossy queues. *)

val with_queue_cap : int -> t -> t

val with_queue_policy : Netsim.Network.queue_policy -> t -> t

val with_bands : int -> t -> t

val without_link_capacity : t -> t
(** Back to infinite links (clears capacity, cap, and policy). *)

val with_crashed : int list -> t -> t

val with_failed_links : (int * int) list -> t -> t

val with_seed : int -> t -> t

val with_obs : Obs.Registry.t -> t -> t

val with_pool : Par.Pool.t option -> t -> t
(** Takes an option so call sites can thread a maybe-pool verbatim
    ([with_pool pool_opt]); [with_pool None] restores sequential. *)

val with_prepare : (Netsim.Network.t -> unit) -> t -> t

val with_engine : Netsim.Sim.engine -> t -> t

val with_trace : Netsim.Trace.t -> t -> t

val seed_value : t -> int
(** The seed, defaulted to the simulator's default (0x51) — for entry
    points that must derive per-trial streams from a concrete seed. *)

val sim_of : t -> Netsim.Sim.t
(** A fresh simulator configured from the environment (seed, engine,
    registry). *)

val network_of_csr : t -> sim:Netsim.Sim.t -> csr:Graph_core.Csr.t -> Netsim.Network.t
(** Lower the environment onto a network: latency, loss, processing
    delay, link capacity/queueing, trace and registry all applied in
    one place, then the static faults — every [crashed] node crashed,
    every [failed_links] link failed — and finally the [prepare] hook.
    Every protocol entry point builds its network here, which is what
    makes the Env record the {e single} workload surface — a knob added
    here reaches flooding, gossip, PIF, reliable broadcast and the
    traffic driver identically. *)
