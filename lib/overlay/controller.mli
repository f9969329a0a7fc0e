(** Epoch-based overlay reconfiguration.

    The controller is the long-lived engine the batch tools only
    simulate: it ingests a stream of join/leave/resize requests,
    batches them into {b epochs}, and per epoch picks the cheaper of
    two reconfiguration strategies by projected {!Diff.cost}:

    - {b repair} — apply the events in place on the
      {!Incremental} engine (O(k²) edges per event, ids stable);
    - {b rebuild} — build the family's canonical topology at the
      target size ({!Membership}) and ship one diff.

    Both candidates are actually materialised: the repair candidate is
    trial-applied on the engine (every operation is exactly invertible,
    so a losing trial rolls back in place) and the winning graph
    becomes the authoritative overlay. Once a rebuild wins, the
    authoritative graph leaves the incremental construction's family
    and later epochs are rebuild-only.

    Each committed epoch is re-verified in full: P1, P2 and P4 by
    {!Lhg_core.Verify.quick} (over [?pool]) on the committed graph —
    the two prefix-order connectivity decisions, which are most of
    the cost, then the eccentricity-bound cover for P4, a few BFS
    passes. With [?chaos], every
    epoch additionally replays an adversarial fault sweep
    ({!Chaos.Audit}) against the {e new} overlay, showing the k−1
    boundary holds mid-reconfiguration.

    Every epoch serialises to one versioned [lhg-reconfig/2] JSON
    object that a client could apply; output is byte-identical at any
    pool size. *)

type request = Join | Leave | Resize of int

val request_to_string : request -> string

type chaos

val chaos :
  ?plans_per_level:int -> ?max_faults:int -> ?seed:int -> Chaos.Gen.adversary -> chaos
(** Per-epoch chaos policy: a fresh sweep (default 2 plans per fault
    level, fault budget up to [max_faults], default k) is generated and
    audited after each epoch commits, with rngs and flood seeds derived
    from [seed] (default 1) and the epoch index. *)

type verify_mode = Cached | Full  (** Inert: [bench/e2e/workloads.ml] still passes [~verify]. *)

type strategy = Repair | Rebuild

val strategy_name : strategy -> string

type verification = {
  mode : [ `Fallback | `Full ];
      (** Always [`Full]; [`Fallback] stays because [bench/e2e/workloads.ml] counts it. *)
  verified : bool;  (** {!Lhg_core.Verify.quick} on the committed graph *)
  reused : int;  (** Always 0; [bench/e2e/workloads.ml] sums it. *)
  revalidated : int;  (** Always 0; [bench/e2e/workloads.ml] sums it. *)
  recomputed : int;  (** Always 0; [bench/e2e/workloads.ml] sums it. *)
}

type rejection = { at : int; request : request; error : Error.t }

type epoch = {
  index : int;
  n_before : int;
  n_after : int;
  applied : int;
  rejections : rejection list;
      (** requests refused, in batch order: [Below_floor] by validation, or
          every accepted request with [No_topology] when the family has no
          topology at the epoch's target size and no repair engine *)
  strategy : strategy;
  cost_repair : int option;  (** projected cost of the repair candidate *)
  cost_rebuild : int option;
  diff : Diff.t;  (** the committed reconfiguration *)
  verification : verification;
  audit : Chaos.Audit.t option;
}

val epoch_verified : epoch -> bool

val epoch_ok : epoch -> bool
(** Verified, and the chaos audit (when run) kept the boundary. *)

type t

val create :
  ?obs:Obs.Registry.t ->
  ?pool:Par.Pool.t ->
  ?verify:verify_mode ->
  ?chaos:chaos ->
  family:Membership.family ->
  k:int ->
  n:int ->
  unit ->
  (t, Error.t) result
(** A controller at initial size [n] (default: no chaos); [?verify]
    is ignored. For the kdiamond family with k ≥ 3 the authoritative
    overlay starts as the incremental engine's graph (grown in place to
    [n]) so repair is available from the first epoch; other families
    start canonical and reconfigure by rebuild. With [?obs], publishes
    [ctrl.epochs]/[ctrl.applied]/[ctrl.rejected] counters, the
    [ctrl.epoch_cost] and [ctrl.epoch_ms] (wall time on the monotonic
    clock) histograms, [ctrl.n]/[ctrl.rewired] gauges, and an
    [Epoch_start]/[Epoch_end] span pair stamped with the epoch index. *)

val graph : t -> Graph_core.Graph.t
(** The authoritative overlay. Callers must not mutate it. *)

val base_graph : t -> Graph_core.Graph.t
(** The epoch-0 overlay, frozen — replaying every epoch diff onto it
    reproduces {!graph}. *)

val n : t -> int
val k : t -> int
val family : t -> Membership.family
val epoch_count : t -> int

val feed : t -> request -> unit
(** Queue a request for the next epoch. The incremental step API:
    interleave [feed]s with {!commit_epoch}s to advance the overlay
    one epoch at a time — e.g. on a shared simulated clock, between
    bursts of a live traffic stream. *)

val pending : t -> int

val commit_epoch : t -> (epoch, Error.t) result
(** Commit the queued batch as one epoch (an empty batch is a valid,
    empty epoch). When no strategy can reach the target size (a JD gap
    with no repair engine), the epoch refuses every accepted request
    with [No_topology], applies nothing (strategy [Rebuild], empty
    diff, [n_after = n_before], no rebuild cost) and verifies the
    unchanged overlay.
    Currently always [Ok]. *)

val run : ?batch:int -> t -> request list -> (epoch list, Error.t) result
(** Feed a whole trace in batches of [batch] (default 8) requests per
    epoch — a thin loop of {!feed}s and {!commit_epoch}s.
    @raise Invalid_argument when [batch < 1]. *)

(** {2 Traces} *)

val parse_trace : string -> (request list, Error.t) result
(** One request per line — [join], [leave] or [resize N]; [#] starts a
    comment. *)

val random_trace :
  seed:int ->
  ?join_probability:float ->
  family:Membership.family ->
  k:int ->
  n0:int ->
  steps:int ->
  unit ->
  request list
(** The {!Churn} random walk as a request list: each step joins with
    [join_probability] (default 0.55), never walking below the family
    floor. *)

(** {2 lhg-reconfig/2} *)

val schema : string

val epoch_to_json : epoch -> string
(** One epoch as an [lhg-reconfig/2] JSON object (schema, sizes,
    strategy and projected costs, applied/rejected counts, the full
    added/removed/kept diff, the verification verdict, chaos boundary
    verdict). *)

val run_to_json : t -> epoch list -> string
(** A whole run: header (family, k, n0, final n), the epoch objects,
    and a summary (totals, [all_verified], [boundary_ok]). *)

val pp_epoch : Format.formatter -> epoch -> unit
