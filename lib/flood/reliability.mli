(** Monte-Carlo delivery reliability under i.i.d. node failures.

    The quantitative question behind "gossip versus deterministic
    flooding": if every node (except the source) has crashed
    independently with probability p before dissemination starts, what
    is the probability that every *surviving* node is reached? For
    flooding this is exactly the probability that the survivors induce a
    connected subgraph containing the source — guaranteed 1 when fewer
    than k nodes fail, degrading with the topology's cut structure
    beyond; for gossip it is strictly smaller even at p = 0. Estimates
    come with Wilson 95% confidence intervals. *)

type estimate = {
  probability : float;  (** point estimate: successes / trials *)
  lo : float;  (** Wilson 95% lower bound *)
  hi : float;  (** Wilson 95% upper bound *)
  trials : int;
}

val wilson_interval : successes:int -> trials:int -> float * float
(** 95% Wilson score interval. *)

val estimate_of : successes:int -> trials:int -> estimate
(** Package a raw success count as an {!estimate} with its Wilson
    interval.
    @raise Invalid_argument when [trials <= 0] or [successes] is
    outside [\[0, trials\]]. *)

val flood_delivery :
  ?obs:Obs.Registry.t ->
  ?pool:Par.Pool.t ->
  csr:Graph_core.Csr.t ->
  source:int ->
  node_failure_prob:float ->
  trials:int ->
  seed:int ->
  unit ->
  estimate
(** Probability that flooding from [source] reaches every survivor,
    estimated over [trials] independent failure draws. Uses the
    closed-form synchronous analysis per draw (exact for flooding).

    Trials run in fixed-size shards, each on its own PRNG stream
    derived from [seed] by deterministic splitting ({!Graph_core.Prng.split});
    with [?pool] the shards fan out across domains. Because the shard
    plan depends only on [(seed, trials)] and successes sum
    order-independently, the estimate is bit-identical for a given
    [(seed, trials)] at any domain count (pool or no pool).

    With [?obs], publishes [reliability.successes]/[reliability.trials]
    counters and the [reliability.probability]/[.lo]/[.hi] gauges; the
    per-draw Monte-Carlo loop itself stays uninstrumented (it is the
    allocation-free hot path). *)

val gossip_delivery :
  ?obs:Obs.Registry.t ->
  csr:Graph_core.Csr.t ->
  source:int ->
  fanout:int ->
  node_failure_prob:float ->
  trials:int ->
  seed:int ->
  unit ->
  estimate
(** Same success event for push gossip with the given fanout and TTL
    {!Gossip.default_ttl}; each trial also re-randomises the gossip
    choices. *)
