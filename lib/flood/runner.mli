(** Experiment helpers: failure sampling and repeated trials.

    These drive the fault-tolerance figures: sample f random crashed
    nodes (never the source), flood, measure coverage of the surviving
    component, repeat over seeds, and aggregate. *)

type aggregate = {
  trials : int;
  mean_coverage : float;  (** of alive nodes *)
  min_coverage : float;
  all_covered_fraction : float;  (** trials with 100% coverage of alive nodes *)
  mean_messages : float;
  mean_completion : float;
  mean_max_hops : float;
  p50_completion : float;  (** exact percentiles over the per-trial completion times *)
  p95_completion : float;
  p99_completion : float;
  hop_counts : int array;
      (** [hop_counts.(h)] = deliveries at hop distance [h], accumulated
          across all trials from the per-run [flood.hops] histogram.
          Empty for gossip trials (no hop counter on the wire) and when
          the caller passes a disabled registry. *)
}

val percentile : float array -> len:int -> float -> float
(** [percentile a ~len q] is the exact [q]-percentile of the samples
    [a.(0 .. len-1)]: the smallest sample such that at least
    [max 1 ⌈q·len⌉] samples are ≤ it, i.e. [sorted.(min (len-1) (max 1
    ⌈q·len⌉ - 1))]; [0.0] when [len = 0]. It selects instead of
    sorting — a three-way quickselect in expected O(len) time with no
    working storage — and so permutes [a.(0 .. len-1)] in place;
    further calls on the same prefix see the same multiset and answer
    the same. Samples must not be NaN. @raise Invalid_argument if [len]
    is outside [0, Array.length a]. *)

val random_crashes : Graph_core.Prng.t -> n:int -> count:int -> avoid:int -> int list
(** [count] distinct crash victims among [0..n-1] − \{avoid\}. *)

val random_link_failures : Graph_core.Prng.t -> Graph_core.Csr.t -> count:int -> (int * int) list
(** [count] distinct edges of the snapshot, as [u < v] pairs, drawn by
    position in {!Graph_core.Csr.iter_edges} order. *)

val flood_trials_env :
  ?link_failures:int ->
  env:Env.t ->
  csr:Graph_core.Csr.t ->
  source:int ->
  crash_count:int ->
  trials:int ->
  unit ->
  aggregate
(** Repeated flooding runs, fresh random failure sets per trial.
    Coverage counts delivered alive nodes over all alive nodes, so a
    partitioned survivor graph shows up as < 1 coverage.

    [env] supplies latency, loss rate, base seed and registry; its
    [crashed]/[failed_links] fields are overwritten per trial with
    freshly sampled failure sets ([crash_count] crash victims avoiding
    the source, plus [link_failures] downed edges). Every trial records
    into [env.obs] verbatim — with a disabled registry (the {!Env.default})
    [hop_counts] stays empty; pass an enabled one to collect the
    per-trial flood metrics, the [runner.completion] histogram and the
    [runner.*] summary gauges. This is the sole trial driver — the
    legacy optional-argument wrappers (and their private-registry
    default) are gone; see {!Env} for the Env-only contract. *)

val gossip_trials_env :
  env:Env.t ->
  csr:Graph_core.Csr.t ->
  source:int ->
  fanout:int ->
  crash_count:int ->
  trials:int ->
  unit ->
  aggregate
(** Same aggregation for the gossip baseline (TTL
    {!Gossip.default_ttl}). [mean_max_hops] is reported as 0 — gossip
    payloads carry no hop counter. *)
