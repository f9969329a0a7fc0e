(** Versioned JSON stream documents.

    The repo's machine-readable outputs are versioned JSON documents —
    [lhg-chaos/1], [lhg-reconfig/2], [lhg-traffic/1] — that used to be
    hand-assembled with [Printf] in three different places, each
    re-deciding commas, indentation and float formatting. This writer
    is the one shared discipline: a document opens with its ["schema"]
    field, fields and nested objects/arrays are appended in call order,
    and {!contents} closes the root.

    Formatting contract (what downstream byte-comparisons rely on):
    two-space indentation per nesting level, one field per line,
    [": "] between key and value, floats printed with [%g] and
    non-finite values mapped to [0] ({!Export.fl}), strings escaped
    with {!Export.escape}. Writing the same sequence of values always
    yields the same bytes — determinism checks across [--jobs] and
    engines compare entire documents verbatim.

    The writer is append-only state, not a JSON AST: invalid sequences
    (a field after {!contents}, unbalanced nesting) raise
    [Invalid_argument] rather than producing broken output. *)

type t

val create : schema:string -> unit -> t
(** Open a document: [{"schema": "<schema>"] — every stream names its
    schema and version first. *)

val str : t -> string -> string -> unit

val int : t -> string -> int -> unit

val float : t -> string -> float -> unit
(** Printed with [%g]; NaN/infinities become [0]. *)

val bool : t -> string -> bool -> unit

val null : t -> string -> unit

val ints : t -> string -> int list -> unit
(** A compact one-line JSON array of ints ([[1, 2, 3]]) — the member
    lists and victim sets that every stream used to hand-render through
    {!raw}. *)

val raw : t -> string -> string -> unit
(** A pre-rendered JSON value (the escape hatch for lists of scalars
    and other shapes the typed writers don't cover). *)

val obj : t -> string -> (t -> unit) -> unit
(** [obj t k f]: a nested object under key [k], populated by [f]. *)

val arr : t -> string -> (t -> unit) -> unit
(** A nested array under key [k]; populate with {!element} /
    {!element_raw}. *)

val element : t -> (t -> unit) -> unit
(** An object element of the enclosing array. *)

val element_raw : t -> string -> unit
(** A pre-rendered scalar element of the enclosing array. *)

val summary : t -> (t -> unit) -> unit
(** The conventional trailing ["summary"] block: [summary t f] =
    [obj t "summary" f]. Every versioned stream ends with one so
    dashboards can read a document's verdict without walking its
    body. *)

val embed : t -> string -> string -> unit
(** [embed t k doc] splices a finished child document (e.g. a per-epoch
    {!contents}) as the value of [k], re-indented to the current
    level. *)

val contents : t -> string
(** Close the root object and return the document (trailing newline
    included). The stream must be back at the root level.
    @raise Invalid_argument on unbalanced nesting. *)
