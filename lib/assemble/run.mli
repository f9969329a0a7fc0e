(** One self-assembly execution: n nodes, no coordinator, a valid LHG
    at the end — or an honest account of why not.

    {2 Protocol}

    Every node runs the same three-phase state machine over a
    {!Netsim.Network} on the complete substrate ({!Wire.substrate}),
    one {!Wire}-encoded int per message:

    - {b Gossip.} Once per round (every [params.period] time units) a
      node pushes its membership view ({!View}) to one live peer chosen
      by a pure hash of [(seed, node, round)] — never the simulator
      RNG, so peer choice is independent of delivery order. The peer
      replies with the merged view. Views only grow, so push-pull
      epidemic exchange converges every live node to the union view in
      O(log n) rounds.
    - {b Freeze and link.} After [params.stability] unchanged rounds a
      node freezes: it sorts the live members of its view, takes its
      rank as its slot, computes its target neighbourhood from the
      deterministic shape arithmetic of {!Lhg_core.Build} at
      [(|live|, k)] — the election nobody had to run — and sends
      [Link_req] to each target. A target frozen on the identical view
      acks (link established on both sides); any other answer is new
      information that unfreezes and resumes gossip.
    - {b Repair.} A frozen node whose request is neither acked nor
      nacked within [params.link_timeout] declares the silent target
      dead — crash detection is just a timeout, exactly as in a real
      deployment — merges the death into its view and unfreezes. The
      growing dead set gossips like any other view change, so the
      survivors re-elect slots over the reduced electorate and
      re-link, without restarting and without any node knowing the
      fault plan. Chaos plans are injected through
      [env.prepare]/[?plan] mid-assembly, the scenario class ROADMAP
      item 2 asked for.

    Every tick, timeout and retry re-checks {!Netsim.Network}'s crash
    state, so a crashed node simply stops participating; messages to
    it are dropped by the network at delivery time.

    {2 What the result means}

    [converged]: every node that never crashed ended frozen on one
    common view, every link of that view's target topology was
    established from both sides, and that view's live set accounts for
    every never-crashed node (members beyond them all crashed mid-run
    — tolerated late faults, not protocol errors). [verified] is the
    post-hoc check of the {e realized} link set — the graph actually
    recorded by ack exchanges, not the intent — under
    {!Lhg_core.Verify.quick}; [certified] (optional) rebuilds an
    {!Overlay.Cert} connectivity certificate over it, giving the
    constructive Menger witness on top of the decision procedure.
    [matches_target] pins realized = target edge-for-edge.

    Runs are deterministic: byte-identical results and
    [lhg-assemble/1] documents across the Calendar/Heap engines and
    any [--jobs] count (the run itself is a single simulation; pools
    only affect verification, which is pool-invariant). *)

type params = {
  period : float;  (** gossip round length (time units) *)
  stability : int;  (** unchanged rounds before freezing *)
  link_timeout : float;  (** silence before a target is declared dead *)
  retry : float;  (** delay before re-requesting a nacked link *)
  max_rounds : int option;  (** abort backstop; [None] = scaled default *)
}

val default_params : params
(** period 3.0 (send, deliver, reply), stability 2, link_timeout 9.0
    (three rounds), retry 3.0, max_rounds scaled to
    [24·⌈log2 n⌉ + 64]. *)

type result = {
  n : int;
  k : int;
  construction : Lhg_core.Build.construction;
  seed : int;
  converged : bool;
  verified : bool;  (** {!Lhg_core.Verify.quick} on the realized graph *)
  certified : bool option;  (** {!Overlay.Cert} rebuild, when requested *)
  matches_target : bool;  (** realized = target, edge for edge *)
  capped : bool;  (** some node hit the round backstop *)
  rounds : int;  (** ⌈last protocol progress / period⌉ — the headline *)
  gossip_rounds : int;  (** latest final-freeze round among survivors *)
  duration : float;  (** virtual time at quiescence (timeouts included) *)
  messages : int;  (** substrate messages sent, all tags *)
  pushes : int;
  replies : int;
  link_reqs : int;
  link_acks : int;
  link_nacks : int;
  freezes : int;
  unfreezes : int;
  deaths_declared : int;  (** timeout-declared deaths, double counting included *)
  views_interned : int;  (** distinct views seen anywhere in the run *)
  final_members : int array;  (** live set of the consensus view (empty if none) *)
  declared_dead : int array;  (** dead set of the consensus view *)
  retired : int array;  (** nodes that ever crashed (plan + static) *)
  realized : Graph_core.Graph.t option;
      (** the realized overlay on [final_members], relabelled by rank —
          present iff [converged] *)
}

val run :
  env:Flood.Env.t ->
  ?plan:Chaos.Plan.t ->
  ?params:params ->
  ?certify:bool ->
  construction:Lhg_core.Build.construction ->
  n:int ->
  k:int ->
  unit ->
  result
(** Assemble an [n]-node overlay targeting [construction] at degree
    [k]. [env] supplies seed, engine, observability, static faults and
    the [prepare] hook exactly as for every other [run_env] protocol;
    [?plan] schedules a {!Chaos.Plan} on the substrate mid-assembly
    (validated first). [?certify] (default false) additionally
    rebuilds an {!Overlay.Cert} over the realized graph.
    @raise Invalid_argument if [n < 2], [k < 2], the plan is invalid
    for the substrate, or params are non-positive. *)

val construction_name : Lhg_core.Build.construction -> string

val schema : string
(** ["lhg-assemble/1"]. *)

val to_json : result -> string
(** The versioned [lhg-assemble/1] document ({!Obs.Stream}):
    byte-deterministic, compared verbatim across engines and jobs in
    CI. *)
