(** Independent verification of the four LHG properties.

    Everything here works on the raw graph with the max-flow machinery of
    {!Graph_core.Connectivity} — no knowledge of shapes or witnesses — so
    that construction bugs cannot hide behind their own bookkeeping.

    - P1 k-node connectivity, P2 k-link connectivity: the prefix-order
      flow decisions of {!Graph_core.Connectivity} — one local probe
      per vertex, each exploring only a small ball around it;
    - P3 link minimality: every edge critical ({!Graph_core.Minimality});
    - P4 logarithmic diameter against {!diameter_bound}: the report
      ({!verify}) carries the exact BFS diameter; the decisions
      ({!is_lhg}, {!quick}) use the eccentricity-bound cover
      {!Graph_core.Paths.diameter_at_most_csr}, a few BFS passes. *)

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
    identical at any domain count. The report keeps the exact diameter,
    which the CLI prints: a sweep of one BFS per vertex, O(n·m), and
    nearly all of a run without minimality: [lhg_tool verify
    --skip-minimality] takes 4.3–5.8 s at n = 16386, k = 4, of which
    P1 and P2 take 0.2 s. A caller that only needs the verdict should
    use {!is_lhg}. *)

val verdict : report -> bool
(** P1 ∧ P2 ∧ P3 ∧ P4 of a report, P3 counting as held when it was
    skipped, for callers that already hold the report they print.
    {!is_lhg} and {!quick} decide the same predicate without the
    report. *)

val is_lhg : ?check_minimality:bool -> ?pool:Par.Pool.t -> Graph_core.Graph.t -> k:int -> bool
(** [verdict (verify ...)], decided without the report: P1, P2, P3 when
    [check_minimality] (default [true]), then P4, over one frozen
    snapshot, each only when every earlier one held. P4 is the
    eccentricity-bound cover, so a passing graph costs the two
    connectivity decisions, the minimality sweep (a degree scan on the
    LHG families) and a few BFS passes. *)

val quick : ?pool:Par.Pool.t -> Graph_core.Graph.t -> k:int -> bool
(** [is_lhg ~check_minimality:false]: P1 ∧ P2 ∧ P4 — the membership
    fast path the reconfiguration controller runs on every epoch: is
    this still a k-connected, logarithmic-diameter overlay? The two
    connectivity decisions explore only a small ball per vertex and the
    P4 cover takes 4 BFS passes on kdiamond, so on one core of a 2-core
    VM it takes about 0.007 s at n = 1026, 0.03 s at 4098 and 0.2 s at
    16386 (k = 4), nearly all of it P1 and P2. *)

val pp_report : Format.formatter -> report -> unit

val check_realization : Build.t -> bool
(** Witness consistency: re-realise the build's shape and compare graphs
    — guards against accidental divergence between witness and graph. *)
