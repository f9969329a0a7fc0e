let to_string g =
  let buf = Buffer.create (16 * (Graph.m g + 1)) in
  Buffer.add_string buf (Printf.sprintf "n %d\n" (Graph.n g));
  Graph.iter_edges g (fun u v -> Buffer.add_string buf (Printf.sprintf "%d %d\n" u v));
  Buffer.contents buf

let of_string s =
  let lines = String.split_on_char '\n' s in
  let error lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
  let rec parse lineno g = function
    | [] -> (
        match g with Some g -> Ok g | None -> Error "empty input: missing 'n <count>' header")
    | line :: rest -> (
        let line =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        let line = String.trim line in
        if line = "" then parse (lineno + 1) g rest
        else
          match (g, String.split_on_char ' ' line |> List.filter (fun t -> t <> "")) with
          | None, [ "n"; count ] -> (
              match int_of_string_opt count with
              | Some n when n >= 0 -> parse (lineno + 1) (Some (Graph.create ~n)) rest
              | Some _ | None -> error lineno "invalid vertex count")
          | None, _ -> error lineno "expected 'n <count>' header"
          | Some _, [ "n"; _ ] -> error lineno "duplicate header"
          | Some g', [ u; v ] -> (
              match (int_of_string_opt u, int_of_string_opt v) with
              | Some u, Some v -> (
                  match Graph.add_edge g' u v with
                  | () -> parse (lineno + 1) g rest
                  | exception Invalid_argument msg -> error lineno msg)
              | _ -> error lineno "expected two vertex ids")
          | Some _, _ -> error lineno "expected 'u v' edge line")
  in
  parse 1 None lines

let write_file ~path g =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string g))

let read_file ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | content -> of_string content
  | exception Sys_error msg -> Error msg
