(** Independent verification of the four LHG properties.

    Everything here works on the raw graph with the max-flow machinery of
    {!Graph_core.Connectivity} — no knowledge of shapes or witnesses — so
    that construction bugs cannot hide behind their own bookkeeping.

    - P1 k-node connectivity, P2 k-link connectivity: the prefix-order
      flow decisions of {!Graph_core.Connectivity} — one local probe
      per vertex, each exploring only a small ball around it;
    - P3 link minimality: every edge critical ({!Graph_core.Minimality});
    - P4 logarithmic diameter: exact BFS diameter against
      {!diameter_bound}. *)

type report = {
  n : int;
  k : int;
  node_connected : bool;  (** P1 *)
  link_connected : bool;  (** P2 *)
  link_minimal : bool option;  (** P3; [None] when skipped *)
  diameter : int option;  (** exact; [None] when disconnected *)
  diameter_ok : bool;  (** P4 against {!diameter_bound} *)
  k_regular : bool;  (** P5, informational *)
}

val diameter_bound : n:int -> k:int -> int
(** The P4 threshold: ⌈2·log_{k−1} n⌉ + 6 for k ≥ 3 — a provable bound
    for the pasted-tree constructions (height ≤ log_{k−1}(n/k) + 2,
    worst path ≤ 2·height + 2, slack for added leaves and cliques).
    For k = 2 the bound degenerates to n: no 2-regular graph family has
    logarithmic diameter, matching the paper's implicit k ≥ 3 scope. *)

val verify :
  ?check_minimality:bool -> ?pool:Par.Pool.t -> Graph_core.Graph.t -> k:int -> report
(** Full property check. [check_minimality] defaults to [true]; it is
    the expensive part (one local flow per edge) and can be disabled for
    large sweeps. With [?pool] every property check fans its
    independent probes (per-vertex flow probes, per-edge criticality
    tests, per-source BFS) across the pool's domains — the report is
    identical at any domain count. Without minimality the exact
    diameter sweep (one BFS per vertex, O(n·m)) is the largest part:
    at n = 16386, k = 4 it takes about 5.5 of the 6 s that
    [lhg_tool verify --skip-minimality] needs. *)

val verdict : report -> bool
(** P1 ∧ P2 ∧ P3 ∧ P4 of a report, P3 counting as held when it was
    skipped — the one predicate behind {!is_lhg} and {!quick}, for
    callers that already hold the report they print. *)

val is_lhg : ?check_minimality:bool -> ?pool:Par.Pool.t -> Graph_core.Graph.t -> k:int -> bool
(** [verdict (verify ...)]: P1 ∧ P2 ∧ P3 ∧ P4. *)

val quick : ?pool:Par.Pool.t -> Graph_core.Graph.t -> k:int -> bool
(** P1 ∧ P2 ∧ P4, skipping the (quadratic) minimality sweep — the
    membership fast path used as the reconfiguration controller's
    full-verification fallback: is this still a k-connected,
    logarithmic-diameter overlay? Its cost is the exact diameter sweep
    (one BFS per vertex) plus the two connectivity decisions, which
    explore only a small ball per vertex: about 0.03 s at n = 1026,
    k = 4 on one core of a 2-core VM, most of it the diameter. *)

val pp_report : Format.formatter -> report -> unit

val check_realization : Build.t -> bool
(** Witness consistency: re-realise the build's shape and compare graphs
    — guards against accidental divergence between witness and graph. *)
