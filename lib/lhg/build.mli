(** The LHG constructions.

    Each builder returns the realised graph together with its structural
    witness (tree shape + vertex layout), so callers can both use the
    graph and re-check every constraint rule on the witness. Builders
    succeed exactly when the corresponding EX function is true — tested
    property in the suite. *)

type t = {
  graph : Graph_core.Graph.t;
  shape : Shape.t;
  layout : Realize.layout;
  k : int;
}

type error =
  | K_too_small of int  (** supplied k; constructions need k ≥ 2 *)
  | N_too_small of { n : int; minimum : int }  (** n < 2k *)
  | Jd_gap of { n : int; k : int; j : int; capacity : int }
      (** the Jenkins–Demers rule cannot place j added leaves *)

val pp_error : Format.formatter -> error -> unit

val error_to_string : error -> string

(** {1 The unified entry point}

    All four constructions behind one closed variant, so callers that
    pick a construction at runtime (CLI, registry, experiments) dispatch
    on data instead of threading function values. *)

type construction =
  | Ktree
  | Kdiamond
  | Kdiamond_rich  (** {!kdiamond_unshared_rich}'s clique-heavy shape *)
  | Jd of { strict : bool }

val construction_name : construction -> string
(** Stable lower-case name ("ktree", "kdiamond", "kdiamond-rich", "jd",
    "jd-lenient") — used in error messages and exporter output. *)

val build : construction -> n:int -> k:int -> (t, error) result
(** Build the given construction. The named functions below are thin
    wrappers over this. *)

val build_exn : construction -> n:int -> k:int -> t
(** @raise Invalid_argument on builder errors. *)

val shape_for : construction -> n:int -> k:int -> (Shape.t, error) result
(** Just the tree shape, unrealised — the shared front half of {!build}
    and {!build_csr}. *)

val build_csr : construction -> n:int -> k:int -> (Graph_core.Csr.t, error) result
(** Build the construction straight into a CSR snapshot
    ({!Realize.realize_csr}), never materialising the adjacency-set
    graph: identical vertices, edges and neighbour order to
    [Csr.of_graph (build _).graph], at a fraction of the time and
    memory — the million-node configuration. *)

val build_csr_exn : construction -> n:int -> k:int -> Graph_core.Csr.t
(** @raise Invalid_argument on builder errors. *)

val jd : ?strict:bool -> n:int -> k:int -> unit -> (t, error) result
(** The Jenkins–Demers operational construction. [strict] defaults to
    [true] (special nodes carry exactly two added leaves); see
    {!Existence.ex_jd}. *)

val ktree : n:int -> k:int -> (t, error) result
(** K-TREE construction — succeeds for every n ≥ 2k (Theorem 2). *)

val kdiamond : n:int -> k:int -> (t, error) result
(** K-DIAMOND construction — succeeds for every n ≥ 2k (Theorem 5) and
    yields a k-regular graph whenever (n−2k) mod (k−1) = 0 (Theorem 6).
    Canonical parameterisation: at most one unshared-leaf group. *)

val kdiamond_unshared_rich : n:int -> k:int -> (t, error) result
(** Same (n,k) coverage and the same regularity characteristic, but
    trades tree conversions for unshared-leaf groups wherever possible —
    the shape the constraint paper's own figures use (e.g. its (13,3)
    graph with every mandatory leaf a 3-clique is reproduced exactly).
    Useful for exercising clique-heavy realisations. *)

val jd_exn : ?strict:bool -> n:int -> k:int -> unit -> t
val ktree_exn : n:int -> k:int -> t
val kdiamond_exn : n:int -> k:int -> t

val kdiamond_unshared_rich_exn : n:int -> k:int -> t
(** @raise Invalid_argument on builder errors. *)

val of_shape : Shape.t -> t
(** Realise an externally assembled shape (no constraint checks). *)
