(** Churn under load, behind one record: a sustained traffic stream
    and an epoch-based controller reconfiguration sharing a simulated
    clock.

    A scenario composes the three flag groups the CLI already speaks —
    a {!Spec} (topology, sizes, seed, engine, jobs, metrics), a
    {!traffic} record (workload, link capacity and queueing, priority
    bands, mid-stream chaos plan, SLOs) and a {!controller} record
    (request trace, batching, verification mode, per-epoch chaos
    audits) — plus the one scenario-only knob, {!t.epoch_interval}.

    {!run} pre-plays the controller trace into committed epochs
    (pure graph work, engine-independent), freezes the {e union} of
    every epoch's edge set into one CSR snapshot, lowers the epochs to
    a {!Traffic.Reconfig} timeline ({!lower}) and hands everything to
    {!Traffic.Driver.run_csr_env}: leavers crash, joiners recover,
    rewired links fail/restore, tree packs re-stripe incrementally,
    and (with [bands > 1]) each commit announces itself on the
    network's priority band. The {!report} document ([lhg-scenario/1])
    is byte-identical across event engines and [--jobs] counts. *)

module Spec = Spec

(** {2 Flag-group records} *)

type traffic = {
  workload : Traffic.Workload.t;
  capacity : float option;  (** per-link service rate; [None] = infinite *)
  queue_cap : int option;
  queue_policy : Netsim.Network.queue_policy option;
  bands : int;  (** link priority bands (1–4); > 1 gives epoch commits a fast lane *)
  plan_file : string option;  (** chaos plan scheduled mid-stream *)
  min_delivery : float;  (** SLO floor on delivery fraction *)
  max_p95 : float;  (** SLO ceiling on p95 delay *)
}

val default_traffic : traffic
(** [Workload.default], infinite links, one band, no plan, full
    coverage required, unbounded p95 — the [traffic] subcommand's
    defaults. *)

type controller = {
  steps : int;  (** length of the generated random trace *)
  trace_file : string option;  (** explicit request trace; wins over [steps] *)
  batch : int;  (** requests batched into one epoch *)
  join_probability : float option;
  chaos_adversary : string option;  (** per-epoch chaos audit generator *)
  chaos_plans_per_level : int;
  chaos_max_faults : int option;
  full_verify : bool;
}

val default_controller : controller
(** 40 steps, batch 8, cached verification, no chaos — the
    [controller] subcommand's defaults. *)

type chaos_audit = {
  adversary : string;
  audit_plan_file : string option;
  source : int;  (** -1 = first vertex outside the adversary's targets *)
  max_faults : int option;  (** [None] = the connectivity degree k *)
  plans_per_level : int;
}
(** The [chaos] subcommand's flag group — decoded once here so every
    front end shares one source of truth, though a scenario run's own
    chaos is the mid-stream plan on {!traffic}. *)

val default_chaos_audit : chaos_audit

(** {2 The scenario} *)

type t = {
  spec : Spec.t;
  traffic : traffic;
  controller : controller;
  epoch_interval : float;  (** simulated time between epoch commits *)
}

val default : t
(** {!Spec.default} + {!default_traffic} + {!default_controller},
    epochs 50 time units apart. *)

val family_of_topology : string -> Overlay.Membership.family option
(** The controller family behind a registry kind, for the kinds that
    have one (ktree, kdiamond, jd, harary). *)

val validate_traffic : traffic -> n:int -> (unit, string) result
(** The traffic flag group's checks, shared by the [traffic] and
    [scenario] subcommands: bands in 1–4, a positive finite capacity,
    a queue cap of at least 1, and a workload valid for [n]. Error
    strings name the CLI flag. *)

val validate_controller : controller -> (unit, string) result
(** The controller flag group's checks, shared by the [controller]
    and [scenario] subcommands: a batch of at least 1, a non-negative
    step count, a join probability in [0, 1] (NaN rejected), at least
    one chaos plan per level and a non-negative fault budget. Error
    strings name the CLI flag. *)

val validate_chaos_audit : chaos_audit -> (unit, string) result
(** The [chaos] subcommand's budget checks, with the same wording as
    {!validate_controller}: at least one plan per level and a
    non-negative fault budget. *)

val validate : t -> (unit, string) result
(** The single validation gate: spec runnable ({!Spec.validate}),
    topology reconfigurable, positive epoch interval,
    {!validate_controller}, then {!validate_traffic} at the spec's n.
    Error strings match the CLI's established wording. *)

val controller_chaos :
  controller -> seed:int -> (Overlay.Controller.chaos option, string) result
(** The per-epoch chaos audit the controller group asks for, if any;
    [Error] names an unknown adversary. *)

val load_trace :
  controller ->
  spec:Spec.t ->
  family:Overlay.Membership.family ->
  (Overlay.Controller.request list, string) result
(** The request trace: the parsed [trace_file] if one is given, else a
    random trace of [steps] requests from the spec's seed, k and n.
    [Error] carries the file or parse error. *)

val lower :
  epoch_interval:float ->
  tree_count:int option ->
  base:Graph_core.Graph.t ->
  Overlay.Controller.epoch list ->
  Graph_core.Graph.t * Traffic.Reconfig.t
(** Lower committed epochs onto a traffic timeline: returns the union
    graph (every edge any epoch ever had — the frozen snapshot the
    stream runs on) and the {!Traffic.Reconfig} schedule: epoch [i]
    commits at [epoch_interval * (i+1)], size changes become
    contiguous join/leave ranges (membership is always a prefix), the
    diff's added/removed edges become link flips, and rebuild-strategy
    epochs are flagged for a full re-pack. Exposed for tests. *)

type outcome = {
  epochs : Overlay.Controller.epoch list;
  all_verified : bool;  (** every epoch verified (and audited, if chaos ran) *)
  union_n : int;
  reconfig : Traffic.Reconfig.t;  (** the lowered timeline the driver replayed *)
  result : Traffic.Driver.result;
  slo_ok : bool;
}

val run :
  ?obs:Obs.Registry.t -> ?pool:Par.Pool.t -> t -> (outcome, string) result
(** Validate, pre-play the controller, lower, stream. [Error] carries
    the CLI-ready message for anything from an unknown topology to an
    unreadable trace file to a driver rejection; the traffic sources
    are pinned inside the t = 0 membership before the run. *)

val schema : string
(** ["lhg-scenario/1"]. *)

val report : t -> outcome -> string
(** The run as one [lhg-scenario/1] document: header, controller
    summary (epochs, applied, repair/rebuild split, final n,
    [all_verified]), the full traffic body ({!Traffic.Driver.emit})
    and the SLO verdict. No wall-clock fields — equal scenarios give
    byte-identical documents. *)

val report_traffic :
  topology:string -> n:int -> k:int -> seed:int -> Traffic.Driver.result -> string
(** The standalone [lhg-traffic/1] document (the old [Driver.to_json]
    surface): the explicit header plus the shared result body. *)
