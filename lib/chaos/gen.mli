(** Adversarial fault-plan generators.

    Where {!Plan} says what a fault plan is, [Gen] decides which plans
    are worth running: the interesting region of a k-connected
    topology is its minimum cuts, because that is where the k−1
    guarantee is tight. A {!sweep} produces a batch of plans at every
    fault budget from 0 to [max_faults] — below the boundary they must
    all deliver, at and above it the cut-directed adversaries should
    produce a concrete disconnection witness.

    Generators never crash the [source]: the guarantee (and its proof
    via the residual graph) is about delivery {e from} a live source,
    so crash pools exclude it and pad from elsewhere instead. *)

type adversary =
  | Min_vertex_cut
      (** crash subsets of an actual minimum vertex cut ({!Graph_core.Connectivity.min_vertex_cut}),
          padded with high-degree vertices beyond the cut size *)
  | Min_edge_cut
      (** down subsets of an actual minimum edge cut, padded with
          further edges beyond the cut size *)
  | High_degree  (** crash the highest-degree vertices first *)
  | Random_static  (** uniform crash sets, all at one time *)
  | Random_dynamic
      (** random mixes of crashes and link cuts at random times, some
          healing later — same weight, adversarial timing *)

val all : adversary list

val to_string : adversary -> string
(** CLI names: [min-cut], [min-edge-cut], [high-degree], [random],
    [dynamic]. *)

val of_string : string -> (adversary, string) result

type aimed
(** An adversary aimed at one frozen topology. For the two min-cut
    adversaries this holds the minimum cut, which costs a max-flow
    sweep — the dominant cost of a min-cut audit — so a caller that
    needs the cut to choose a source and then sweeps computes it once. *)

val aim : Graph_core.Csr.t -> adversary -> aimed
(** Aim the adversary at the snapshot: compute the cut from
    {!Graph_core.Connectivity.min_vertex_cut} or [min_edge_cut] for the
    cut adversaries, nothing for the others. *)

val targets : aimed -> int list
(** The vertices the aimed adversary strikes: the minimum vertex cut,
    or both endpoints of every minimum-cut edge, in cut order; [[]] for
    the untargeted adversaries. A front end that picks the source picks
    it outside these, so crash plans never have to spare their
    strongest victim and no source is incident to a cut link (it would
    leak in-flight copies across the cut before a t = 0 link-down
    fires). *)

val sweep :
  ?plans_per_level:int ->
  ?at:float ->
  rng:Graph_core.Prng.t ->
  source:int ->
  max_faults:int ->
  aimed ->
  Plan.t list
(** Plans at every fault budget [f = 0 .. max_faults] on the snapshot
    the adversary was {!aim}ed at: level 0 is the single empty plan;
    each further level contributes [plans_per_level] (default 3) plans
    of weight exactly [f] — a deterministic prefix of the adversary's
    target pool first (so at [f = |min cut|] the full cut is always
    among the plans), then random variations drawn from [rng]. [at]
    (default 0) is the fault time for the static adversaries. Requires
    [max_faults < n] budget-wise only; pools silently cap at what the
    topology offers.
    @raise Invalid_argument on negative [max_faults] or
    [plans_per_level < 1]. *)
