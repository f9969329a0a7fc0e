(* Versioned JSON stream documents — the shared emitter behind
   lhg-chaos/1, lhg-reconfig/2 and lhg-traffic/1. One writer, one
   formatting discipline: pretty-printed two-space indent, every field
   on its own line with a '": "' separator, floats through Export.fl
   (%g, non-finite mapped to 0) so documents are byte-deterministic for
   a given sequence of writes. *)

type t = {
  buf : Buffer.t;
  mutable depth : int;
  mutable firsts : bool list;  (** head = "no field written yet at the current level" *)
}

let indent t =
  for _ = 1 to t.depth do
    Buffer.add_string t.buf "  "
  done

(* comma-separate from the previous entry at this level, then indent *)
let next_entry t =
  (match t.firsts with
  | true :: rest -> t.firsts <- false :: rest
  | false :: _ -> Buffer.add_char t.buf ','
  | [] -> invalid_arg "Obs.Stream: document already closed");
  Buffer.add_char t.buf '\n';
  indent t

let key t k =
  next_entry t;
  Buffer.add_char t.buf '"';
  Buffer.add_string t.buf (Export.escape k);
  Buffer.add_string t.buf "\": "

let open_level t opening =
  Buffer.add_string t.buf opening;
  t.depth <- t.depth + 1;
  t.firsts <- true :: t.firsts

let close_level t closing =
  (match t.firsts with
  | [] -> invalid_arg "Obs.Stream: document already closed"
  | first :: rest ->
      t.depth <- t.depth - 1;
      if not first then begin
        Buffer.add_char t.buf '\n';
        indent t
      end;
      t.firsts <- rest);
  Buffer.add_string t.buf closing

let schema_key = "schema"

let create ~schema () =
  let t = { buf = Buffer.create 1024; depth = 0; firsts = [] } in
  open_level t "{";
  key t schema_key;
  Buffer.add_char t.buf '"';
  Buffer.add_string t.buf (Export.escape schema);
  Buffer.add_char t.buf '"';
  t

let raw t k v =
  key t k;
  Buffer.add_string t.buf v

let str t k v = raw t k ("\"" ^ Export.escape v ^ "\"")

let int t k v = raw t k (string_of_int v)

let float t k v = raw t k (Export.fl v)

let bool t k v = raw t k (string_of_bool v)

let null t k = raw t k "null"

let ints t k vs =
  (* compact one-line int array — member lists, victim sets, per-round
     counters; the shape every stream used to hand-assemble via [raw] *)
  let b = Buffer.create 32 in
  Buffer.add_char b '[';
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (string_of_int v))
    vs;
  Buffer.add_char b ']';
  raw t k (Buffer.contents b)

let obj t k f =
  key t k;
  open_level t "{";
  f t;
  close_level t "}"

let arr t k f =
  key t k;
  open_level t "[";
  f t;
  close_level t "]"

let element t f =
  next_entry t;
  open_level t "{";
  f t;
  close_level t "}"

let element_raw t v =
  next_entry t;
  Buffer.add_string t.buf v

let summary t f = obj t "summary" f

let embed t k child =
  (* splice a finished child document as the value of [k], re-indented
     to the current level *)
  key t k;
  let s = child in
  String.iteri
    (fun i c ->
      Buffer.add_char t.buf c;
      if c = '\n' && i < String.length s - 1 then indent t)
    s

let contents t =
  match t.firsts with
  | [ _ ] ->
      close_level t "}";
      Buffer.add_char t.buf '\n';
      Buffer.contents t.buf
  | [] -> Buffer.contents t.buf
  | _ -> invalid_arg "Obs.Stream.contents: unclosed nested object"
