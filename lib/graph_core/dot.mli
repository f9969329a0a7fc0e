(** Graphviz DOT export. *)

val to_dot :
  ?name:string ->
  ?label:(int -> string) ->
  ?color:(int -> string option) ->
  Graph.t ->
  string
(** Render the graph as an undirected DOT document. [label] supplies
    vertex labels (default: the vertex id); [color] an optional fill
    colour per vertex. *)

val write_file : path:string -> string -> unit
(** Write a rendered document to a file.
    @raise Sys_error when the file cannot be created or written. *)
