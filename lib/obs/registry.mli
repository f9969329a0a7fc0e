(** Per-run metrics registry: counters, gauges, fixed-bucket histograms
    and span-style protocol events.

    One registry accompanies one simulation run (or one experiment
    aggregating several runs). Instrumented modules register named
    metrics at setup time and record into them on the hot path; the
    exporters ({!Export}) turn the registry into a JSON or text
    document afterwards.

    {2 Cost model}

    Recording is O(1) and allocation-free: counters mutate an int
    field, gauges and histogram sums write into pre-allocated float
    arrays (avoiding boxed-float stores), histogram bucket selection is
    a binary search over the fixed bounds (a float passed to {!observe}
    from a call the build does not inline is still boxed by the
    caller), and span events write into a struct-of-arrays ring buffer
    that the first event allocates. Each record is still a call, and
    under dune's dev profile ([-opaque]) no call into this module is
    inlined, so the per-message layers do not record here per message:
    {!Netsim.Sim} and {!Netsim.Network} count in their own fields and
    publish the change when a run returns, through {!add} and
    {!observe_n}; {!observe_array} takes a buffer of samples a run
    collected. On a disabled registry ({!nil}, or
    [create ~enabled:false]) registration hands back detached dummy
    metrics and {!event} returns after one branch, so an
    uninstrumented run pays a few stray stores and nothing else —
    instrumented code never needs [match] arms around its recording
    calls. Registration itself (name lookup) allocates and is meant for
    run setup, not for inner loops. *)

type t

val create : ?enabled:bool -> ?event_capacity:int -> unit -> t
(** Fresh registry; [enabled] defaults to [true]. [event_capacity]
    (default 65536) bounds the span-event ring buffer; older events are
    evicted silently and counted in {!events_dropped}. The ring (four
    arrays of [event_capacity] slots, 2 MiB at the default) is
    allocated by the first recorded event, so a registry that records
    none never holds it. *)

val nil : t
(** The shared disabled registry. Passing it to instrumented code turns
    all recording into no-ops without any [option] plumbing. *)

val enabled : t -> bool

val set_clock : t -> (unit -> float) -> unit
(** Install the virtual-time clock used to stamp span events —
    {!Netsim.Sim.create} points it at the simulation clock so protocol
    events and wire-level {!Netsim.Trace} events share one timeline.
    No-op on a disabled registry. *)

val now : t -> float
(** Current reading of the installed clock (0.0 before {!set_clock}). *)

(** {1 Counters} — monotonically increasing integers. *)

type counter

val counter : t -> string -> counter
(** Register (or look up) the counter named [name]. Returning the same
    value for the same name lets several runs publish into one registry
    cumulatively.
    @raise Invalid_argument if the name is registered as another type. *)

val incr : counter -> unit

val add : counter -> int -> unit

val counter_value : counter -> int

val counter_name : counter -> string

(** {1 Gauges} — last-write-wins floats. *)

type gauge

val gauge : t -> string -> gauge

val set : gauge -> float -> unit

val set_max : gauge -> float -> unit
(** Keep the running maximum of all values recorded so far. *)

val gauge_value : gauge -> float

val gauge_name : gauge -> string

(** {1 Histograms} — fixed upper-bound buckets plus an overflow bucket. *)

type histogram

val histogram : t -> string -> bounds:float array -> histogram
(** Register (or look up) a histogram with the given strictly increasing
    finite upper bounds. The registry keeps a reference to [bounds] —
    callers must not mutate it; use the shared constants below for hot
    call sites so no per-call array is built.
    @raise Invalid_argument on empty, non-increasing or non-finite
    bounds, or if [name] exists with a different bucket count. *)

val observe : histogram -> float -> unit

val observe_n : histogram -> float -> n:int -> unit
(** [observe_n h v ~n] is [n] calls of [observe h v]: the same bucket
    count, total, and sum to the last bit, whatever the sum held
    before. One bucket search and [n] float additions. For samples a
    layer tallies per value while it runs and publishes afterwards.
    No-op when [n = 0].
    @raise Invalid_argument if [n < 0]. *)

val observe_array : histogram -> float array -> len:int -> unit
(** Observe [a.(0)], …, [a.(len - 1)] in index order: the same counts
    and, addition for addition, the same sum as that many {!observe}
    calls, without boxing any of them. For samples a run buffers and
    records once it ends.
    @raise Invalid_argument if [len] is outside [0, Array.length a]. *)

val histogram_count : histogram -> int
(** Number of observations. *)

val histogram_sum : histogram -> float

val percentile : histogram -> float -> float
(** [percentile h q] for q ∈ \[0,1\]: the smallest bucket upper bound
    such that at least ⌈q·count⌉ observations fall at or below it.
    Observations beyond the last bound report the last bound (the
    overflow bucket has no finite upper edge). 0.0 on an empty
    histogram.
    @raise Invalid_argument if q is outside \[0,1\]. *)

val histogram_name : histogram -> string

val histogram_bounds : histogram -> float array
(** The upper bounds (do not mutate). *)

val histogram_counts : histogram -> int array
(** Per-bucket counts, length [bounds + 1] (last = overflow); a copy. *)

val linear_bounds : lo:float -> step:float -> count:int -> float array
(** [lo, lo+step, …] — [count] bounds. *)

val exponential_bounds : lo:float -> factor:float -> count:int -> float array
(** [lo, lo·factor, …] — [count] bounds; [factor > 1]. *)

val hop_bounds : float array
(** 0, 1, …, 63 — hop counts and round numbers. *)

val time_bounds : float array
(** 1, 2, 4, …, 2²³ — virtual-time latencies and completion times. *)

val depth_bounds : float array
(** 0, 1, …, 31 — receiver queue depths. *)

(** {1 Span events} — timestamped protocol-level happenings, layered
    over the wire-level {!Netsim.Trace}. *)

type span_kind =
  | Round_start
  | Round_end
  | Retransmit  (** an anti-entropy repair resend *)
  | Crash
  | Recover  (** a crashed node coming back up *)
  | Link_down
  | Link_up  (** a failed link restored *)
  | Loss_rate  (** the network loss rate changed; [info] is the new rate in ppm *)
  | Churn_join
  | Churn_leave
  | Epoch_start  (** a reconfiguration epoch opened; [info] is the epoch index *)
  | Epoch_end  (** the epoch committed; [info] is the chosen diff cost *)

val span_kind_name : span_kind -> string

val all_span_kinds : span_kind list

val event : t -> span_kind -> node:int -> info:int -> unit
(** Record one event stamped with the registry clock. [node] is the
    subject vertex (or a protocol-defined scalar), [info] a free
    per-kind payload (round number, payload id, peer vertex, edge
    delta…). No-op when disabled. *)

val event_at : t -> at:float -> span_kind -> node:int -> info:int -> unit
(** As {!event} with an explicit timestamp — for modules that replay or
    post-process a run (e.g. round reconstruction) rather than record
    live. *)

type event_view = { at : float; kind : span_kind; node : int; info : int }

val events : t -> event_view list
(** Retained events, oldest first. *)

val events_recorded : t -> int
(** Total events ever recorded (evicted ones included). *)

val events_dropped : t -> int
(** Events evicted by the ring buffer. *)

val event_kind_count : t -> span_kind -> int
(** Per-kind totals; eviction-proof (kept outside the ring). *)

(** {1 Introspection} — used by the exporters. *)

val counters : t -> counter list
(** In registration order; likewise below. *)

val gauges : t -> gauge list

val histograms : t -> histogram list

val find_histogram : t -> string -> histogram option

val merge : t -> t -> unit
(** [merge dst src] folds [src]'s recordings into [dst] — the export
    step of per-domain registries: give each domain of a parallel run
    its own registry (recording stays unsynchronised and
    allocation-free), then merge them into one for {!Export}.

    Semantics per metric (matched by name): counters add; histograms
    add pointwise (the bounds must be identical — bucket count {e and}
    values); gauges keep the maximum of the two readings (the only
    order-independent combination available for last-write-wins cells —
    re-[set] summary gauges after merging if max is not the intent).
    [src]'s span events are re-recorded into [dst] with their original
    timestamps, subject to [dst]'s ring capacity; eviction-proof
    per-kind totals add. [src] is unchanged. No-op when either registry
    is disabled or both are the same registry.
    @raise Invalid_argument on a name registered with another metric
    type or a histogram with different bounds. *)

val clear : t -> unit
(** Reset every value, count and event while keeping registrations —
    reuse one registry across runs without re-plumbing metrics. *)
