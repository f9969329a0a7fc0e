(** Discrete-event simulation engine.

    Callbacks and messages scheduled at virtual times, executed in
    (time, insertion-sequence) order, so runs are fully deterministic
    given a seed — ties never depend on hash or allocation order. The
    engine knows nothing about networks; see {!Network} for the
    message-passing layer built on top.

    Two interchangeable queue engines produce the identical execution
    order:

    - {!Calendar} (default) — a calendar queue: events hash into time
      buckets of [bucket_width], and only the current service window is
      ever sorted. Constant-latency flooding appends in near-sorted
      order, so the common case is O(1) per event with zero allocation
      (event fields live in a recycled struct-of-arrays pool). A window
      that does need sorting, as under link queues, is ordered by a
      stable distribution on exact time when it holds at most
      {!lane_cap} distinct times, and quicksorted otherwise.
    - {!Heap} — the classic binary-heap ordering, kept as the reference
      implementation for differential tests.

    Messages are the allocation-free fast path: four integer fields
    ([src]/[dst]/[tag]/[payload]) delivered to a single pre-installed
    handler ({!set_message_handler}), instead of one closure per
    event.

    {2 Fan-out events}

    One pooled event may stand for several messages. {!Network} does
    this for a unit-latency fan-out ({!Network.send_neighbors_except}):
    its d messages share one arrival time and would take d consecutive
    seqs, so nothing can sit between them in (time, seq) order, and
    anything a receiver schedules while they run gets a later seq. The
    network therefore schedules one event and its handler runs the d
    deliveries in order when the event fires, calling {!count_message}
    for each after the first. The counts keep their meaning in
    messages: {!events_processed} and ["sim.events"] count every
    message the fan-out delivers, exactly as if each were its own
    event. {!step} runs the whole fan-out, and {!pending} counts it
    once.

    {2 Publishing counts}

    Nothing on the event path records into an {!Obs.Registry}: the
    simulator counts executed events in its own field, and the
    handler's owner ({!Network}) counts in its own fields too. The
    counts reach the registry when {!run} returns (also when a handler
    raises, with what ran before it) and after each {!step}: the
    simulator adds what ["sim.events"] gained since the last publish
    and calls the publish function installed with the message handler
    ({!set_message_handler}). A registry read between runs or steps is
    therefore up to date; one read from inside a handler is not. *)

type t

type engine =
  | Calendar  (** bucketed calendar queue — the default *)
  | Heap  (** reference binary heap, for differential testing *)

val create :
  ?seed:int ->
  ?obs:Obs.Registry.t ->
  ?engine:engine ->
  ?bucket_width:float ->
  ?buckets:int ->
  unit ->
  t
(** Fresh simulator at time 0 with a deterministic RNG (default seed
    0x51). With [?obs], the registry's span-event clock is pointed at
    this simulation's virtual time — the shared timeline that lets
    protocol spans, wire traces and metrics line up — and the
    ["sim.events"] counter receives the executed events, each message
    of a fan-out event counted as one, whenever the counts are
    published (see above).

    [bucket_width] (default 1.0) and [buckets] (default 512) shape the
    calendar queue; they affect performance only, never ordering. The
    defaults suit unit-latency networks, where one bucket holds one
    flood round. [bucket_width] also sets the horizon every event time
    must stay below, [bucket_width × 2{^52}], on either engine.
    @raise Invalid_argument unless [bucket_width > 0] and
    [buckets >= 1]. *)

val engine : t -> engine

val lane_cap : int
(** The most distinct event times a calendar window may hold and still
    be ordered by distribution when it needs sorting (32); a window with
    more is quicksorted, after a scan that stops at its first time over
    the cap. The two paths give the same order. *)

val now : t -> float
(** Current virtual time. Reading it never allocates: the clock is one
    boxed float that an event replaces only when it moves the time. *)

val rng : t -> Graph_core.Prng.t
(** The simulation's RNG stream. Draw all protocol randomness from here
    (or from {!fork_rng}) to keep runs reproducible. *)

val fork_rng : t -> Graph_core.Prng.t
(** An independent RNG stream split off the simulation's. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Run a callback [delay] time units from now.
    @raise Invalid_argument when [delay] is negative, NaN or infinite,
    or [now + delay] reaches the horizon (see {!schedule_at}); the
    message names the entry point. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Run a callback at an absolute virtual time ≥ {!now}.
    @raise Invalid_argument when [time] is before {!now}, NaN,
    infinite, or at or past the horizon, [bucket_width × 2{^52}]
    (4.5e15 at the default width). Every scheduling entry point, on
    both engines, rejects such a time: none of them has a calendar
    service window (from year 2{^53} on a year and the next can round
    to the same float), so the calendar could hold the event where no
    window takes it and {!run} would not return. Every time below the
    horizon is served, whatever [buckets]. The heap would order +∞
    last and fire it; it no longer gets the chance, so both engines
    run the same events. *)

val set_message_handler :
  t ->
  publish:(unit -> unit) ->
  (src:int -> dst:int -> tag:int -> payload:int -> unit) ->
  unit
(** Install the sink for message events. One handler per simulator — a
    second install raises — because messages carry no closure: whoever
    owns the handler owns the meaning of [tag]/[payload]. [publish] is
    that owner's way to hand its own counts to its registry: the
    simulator calls it when {!run} returns or raises and after each
    {!step}, right after publishing ["sim.events"]. A handler that
    keeps no counts passes [ignore]. *)

val schedule_message :
  t -> time:float -> src:int -> dst:int -> tag:int -> payload:int -> unit
(** Schedule a message event at an absolute virtual time ≥ {!now}, to be
    delivered to the {!set_message_handler} sink. The four fields are
    packed into two pooled integers, so [src] and [dst] must lie in
    [0, 2^31), [tag] in [0, 4), and [payload] must be ≥ 0 (below 2^60).
    Allocation-free in steady state: the pool grows chunk-wise and never
    copies, so memory is touched once however large the backlog. A
    pending event takes four words: its time, its seq (a free slot's
    seq is the free-list link) and the two packed ints.
    @raise Invalid_argument when [time] is before {!now}, NaN,
    infinite or past the horizon (see {!schedule_at}), or a field is
    out of range.

    Outside this module, [time] is a boxed float argument (2 minor
    words per call) unless the build inlines across modules, which
    dune's dev profile ([-opaque]) does not; hot callers use
    {!schedule_message_cell}. No library code schedules through this
    entry any more: it is kept as the plain one for callers off the
    hot path, such as tests and one-off events. *)

val time_cell : t -> float array
(** A one-slot float array this simulator owns. A caller writes an
    event time into slot 0 and then calls {!schedule_message_cell}, so
    the time crosses the module boundary as an unboxed store and load
    rather than as a boxed argument. The slot is read once per call and
    means nothing between calls. *)

val schedule_message_cell : t -> src:int -> dst:int -> tag:int -> payload:int -> unit
(** {!schedule_message} at the time in slot 0 of {!time_cell}: the
    allocation-free entry for computed times, such as
    {!Network}'s capacity sends (departure plus latency) and receiver
    queueing. @raise Invalid_argument as {!schedule_message}. *)

val schedule_message_after :
  t -> delay:float -> src:int -> dst:int -> tag:int -> payload:int -> unit
(** [schedule_message] at [now + delay]. The per-message hot path for
    senders that think in delays: one call instead of a {!now} round
    trip, and a constant [delay] costs no float boxing at the call
    site. @raise Invalid_argument as {!schedule}. *)

val count_message : t -> unit
(** Count one more executed message in {!events_processed}, and so in
    what ["sim.events"] receives at the next publish. For a message
    handler that runs several messages from one event (a fan-out event,
    see above): the step counts the first, the handler calls this
    before each further one. One field increment; no registry call. *)

val step : t -> bool
(** Execute the next event; [false] when the queue is empty. A fan-out
    event runs all of its messages in one step. Publishes the counts
    afterwards (see above), also when the event's handler raises, so a
    [step] loop leaves the registry where {!run} would. *)

val run : ?until:float -> t -> unit
(** Drain the queue, or stop (without executing further events) once the
    next event is strictly later than [until]. Publishes the counts
    when it returns, and before re-raising when a handler raises: the
    registry then holds everything that ran before the exception.
    Running in [~until] slices publishes once per slice and adds up to
    the same counts as one run. *)

val events_processed : t -> int
(** Events executed so far, each message of a fan-out event counted as
    one (see {!count_message}). *)

val pending : t -> int
(** Events still queued; a pending fan-out event counts once, however
    many messages it carries. *)
