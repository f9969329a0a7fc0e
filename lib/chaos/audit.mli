(** Sweeping a flood against fault plans: the empirical k−1 boundary.

    The paper's claim is exact: on a k-connected topology,
    deterministic flooding delivers to every live node under {e any}
    k−1 failures — and a k-fault adversary aiming at a minimum cut can
    break it. [Audit] checks both halves empirically. It replays one
    flooding execution per plan (each under its own derived seed and,
    when observability is on, its own registry) and classifies:

    - the {b obligation} of a plan is every node it never crashes —
      a node that is down at any point during the run is owed nothing
      (it may miss the wave even if it recovers), but a node that was
      up throughout must be reached;
    - a plan {b completes} when its whole obligation is delivered;
    - {!t.boundary_ok} holds when every deterministic plan of
      {!Plan.weight} ≤ k−1 completed — the guarantee half. Plans with
      probabilistic loss ({!Plan.stochastic}, or a positive
      [env.loss_rate]) are reported but exempt;
    - an incomplete plan carries a {!witness}: the fault set it
      deployed and the obligated nodes left unreached — at weight ≥ k
      this is the concrete cut demonstrating tightness.

    Soundness of the obligation (why dynamic plans are held to the
    same boundary): a real execution delivers at least as much as
    flooding on the residual graph with every ever-crashed node and
    ever-downed link removed, and weight ≤ k−1 keeps that residual
    graph connected.

    Plans are independent, so the sweep fans out over [env.pool]
    ({!Par.Pool}) when one is supplied; per-plan seeds are derived
    sequentially up front and per-plan registries are merged in plan
    order, so reports are bit-identical at any domain count. *)

type witness = {
  crashed_nodes : int list;  (** every node the run ever crashed *)
  downed_links : (int * int) list;  (** every link it ever downed *)
  unreached : int list;  (** obligated nodes the flood missed *)
}

type plan_report = {
  index : int;  (** position in the input plan list *)
  plan : Plan.t;
  weight : int;
      (** distinct faults deployed, static [env] failures included *)
  stochastic : bool;
  complete : bool;
  delivered : int;  (** obligated nodes reached *)
  obligated : int;
  completion_time : float;
  messages : int;
  witness : witness option;  (** present iff not [complete] *)
}

type row = {
  faults : int;  (** the weight this row aggregates *)
  plans : int;
  complete_plans : int;
  stochastic_plans : int;
}

type t = {
  k : int;
  source : int;
  reports : plan_report list;  (** in input order *)
  matrix : row list;  (** per-weight delivery matrix, ascending *)
  boundary_ok : bool;
  violations : plan_report list;
      (** deterministic plans of weight ≤ k−1 that did not complete —
          empty exactly when [boundary_ok] *)
}

val run :
  env:Flood.Env.t ->
  csr:Graph_core.Csr.t ->
  k:int ->
  source:int ->
  plans:Plan.t list ->
  t
(** Flood the frozen topology [csr] from [source] once per plan and
    aggregate — every plan runs on the one snapshot. [env]
    supplies everything else: latency and loss model, base seed
    (per-plan seeds derive from it), static [crashed]/[failed_links]
    (applied to every run and counted into each plan's weight and
    witness), registry (per-plan registries are merged into it in plan
    order when enabled) and [pool] for the parallel sweep. An [env]
    [prepare] hook, if any, runs before each plan's own.
    @raise Invalid_argument if [k < 1], the source is out of range or
    statically crashed, or any plan fails {!Plan.validate} (the error
    names the plan index). *)

val derive_seeds : env:Flood.Env.t -> int -> int array
(** The sweep's per-run seed schedule: [n] seeds drawn sequentially
    from a {!Graph_core.Prng} over the env's base seed, before any
    fan-out — the discipline that keeps every pool-parallel audit
    (this one, {!Assemble.Audit}) bit-identical at any domain count.
    Exposed so sibling audits derive identically shaped schedules
    instead of re-inventing the pattern. *)

val first_witness : t -> plan_report option
(** The lowest-weight incomplete report (ties: first by index) — the
    sharpest demonstration the sweep found, typically a k-fault
    min-cut plan. *)
