(** The topology catalogue: every graph family the CLI and experiment
    drivers can name, behind one record type.

    Each entry bundles the admissibility predicate, the builder and (for
    the witnessed LHG constructions) the {!Lhg_core.Build.construction}
    it dispatches to, so front ends match on data instead of duplicating
    string-dispatch tables. *)

type entry = {
  name : string;
  doc : string;  (** one line, for listings and [--help] *)
  admissible : n:int -> k:int -> bool;
      (** Whether the family has a member at these parameters. *)
  requirement : string;  (** human-readable admissibility rule *)
  build : n:int -> k:int -> seed:int -> (Graph_core.Graph.t, string) result;
      (** [seed] only matters for randomised families (expander). *)
  csr : n:int -> k:int -> seed:int -> (Graph_core.Csr.t, string) result;
      (** CSR builder — total on every entry. Families whose edges are
          pure arithmetic (the LHG constructions, cycle, complete,
          hypercube) realise straight into CSR; the rest go through
          [build] and freeze. Callers never need to case-split again. *)
  direct_csr : bool;
      (** Whether [csr] avoids the adjacency-set intermediate — the
          entries safe to take to million-node scale. *)
  construction : Lhg_core.Build.construction option;
      (** The LHG construction behind this entry, when there is one —
          gateway to witnesses, routes and shape inspection. *)
}

val all : entry list
(** In presentation order; names are unique. *)

val names : string list

val find : string -> entry option

val build_graph :
  kind:string -> n:int -> k:int -> seed:int -> (Graph_core.Graph.t, string) result
(** Look up and build in one step. Unknown kinds report the known names;
    inadmissible parameters report the entry's requirement. *)

val build_csr_graph :
  kind:string ->
  n:int ->
  k:int ->
  seed:int ->
  unit ->
  (Graph_core.Csr.t, string) result
(** Look up and build a CSR snapshot in one step via the entry's [csr]
    field. *)

val witness : kind:string -> n:int -> k:int -> Lhg_core.Build.t option
(** The structural witness, for entries backed by an LHG construction
    that succeeds at (n, k); [None] otherwise. *)
