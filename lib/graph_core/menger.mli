(** Constructive Menger: extract maximum families of disjoint paths.

    Beyond the numeric connectivity values of {!Connectivity}, these
    functions return the actual paths — the objects a flooding protocol
    relies on (each failure can kill at most one path of the family). *)

val edge_disjoint_paths : ?limit:int -> Graph.t -> s:int -> t:int -> int list list
(** A maximum (or [limit]-capped) family of pairwise edge-disjoint s–t
    paths, each given as the full vertex sequence [s; ...; t]. *)

val vertex_disjoint_paths : ?limit:int -> Graph.t -> s:int -> t:int -> int list list
(** A maximum (or capped) family of internally vertex-disjoint s–t paths.
    When s and t are adjacent, the direct edge [\[s; t\]] is one of the
    returned paths. *)

val fan_paths : ?limit:int -> Graph.t -> sources:int list -> t:int -> int list list
(** A maximum (or capped) family of paths, each from a *distinct* member
    of [sources] to [t], pairwise vertex-disjoint except at [t] (a
    "fan" rooted at [t]). Each path reads [s_i; ...; t]. At most
    [List.length sources] paths exist; [Overlay.Cert]'s k-fan witnesses
    cap with [~limit:k].
    @raise Invalid_argument on duplicate sources, out-of-range vertices,
    or [t] listed among the sources. *)

val check_edge_disjoint : int list list -> bool
(** [true] iff no undirected edge appears in two paths. Test helper. *)

val check_internally_disjoint : s:int -> t:int -> int list list -> bool
(** [true] iff no vertex other than [s], [t] appears in two paths, and
    every path starts at [s] and ends at [t]. Test helper. *)
