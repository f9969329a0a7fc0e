(** Push gossip — the probabilistic baseline.

    On first receipt (and at the start, for the source) a node forwards
    the payload to [fanout] uniformly chosen neighbours; a TTL bounds the
    spread. Gossip sends O(n·fanout) messages and delivers with high
    probability only — the qualitative contrast with deterministic
    flooding on a k-connected graph, which guarantees delivery under any
    k−1 failures. *)

type result = {
  delivered : bool array;
  messages_sent : int;
  completion_time : float;
  coverage_of_alive : float;  (** delivered / alive, in (0,1] *)
}

val run_env :
  env:Env.t ->
  csr:Graph_core.Csr.t ->
  source:int ->
  fanout:int ->
  ttl:int ->
  unit ->
  result
(** One gossip execution under the given environment — the sole entry
    point (see {!Env} for the Env-only contract). Every {!Env.t} field
    except [pool] is consumed; the [prepare] hook runs before the first
    push. With an enabled [env.obs], publishes the [gossip.completion]
    per-node delivery histogram, the [gossip.delivered_nodes] counter
    and the [gossip.coverage]/[gossip.completion_time] gauges on top of
    the network-layer [net.*] metrics. *)

val push : net:Netsim.Network.t -> rng:Graph_core.Prng.t -> fanout:int -> int -> int -> unit
(** [push ~net ~rng ~fanout v msg] sends [msg] from [v] to
    [min fanout (degree v)] neighbours drawn uniformly without
    replacement from [rng], each through {!Netsim.Network.send_int} on
    the neighbour's row slot. The one gossip relay: {!run_env} pushes
    the remaining TTL with it, and {!Traffic.Driver}'s [Gossip]
    dissemination a chunk id and TTL packed into one int.
    @raise Invalid_argument if [v] is crashed. *)

val default_ttl : n:int -> int
(** ⌈log₂ n⌉ + 4 — enough rounds for gossip to plausibly saturate. *)
