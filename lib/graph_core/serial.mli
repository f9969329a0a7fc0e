(** Plain-text graph serialisation.

    Format: a header line ["n <vertices>"], then one ["u v"] line per
    edge; blank lines and ["#"] comments are ignored. Stable across the
    CLI (`lhg_tool generate` emits it, `verify --input` reads it) and
    handy for interchange with external tools. *)

val to_string : Graph.t -> string

val of_string : string -> (Graph.t, string) result
(** Parse; the error mentions the offending line. *)

val write_file : path:string -> Graph.t -> unit

val read_file : path:string -> (Graph.t, string) result
(** Read and parse a file; a file that cannot be read (missing, a
    directory, no permission) is an [Error] too, carrying the system's
    message. *)
