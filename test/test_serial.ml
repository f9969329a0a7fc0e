open Helpers
module Graph = Graph_core.Graph
module Serial = Graph_core.Serial
module Generators = Graph_core.Generators

let roundtrip g =
  match Serial.of_string (Serial.to_string g) with
  | Ok g' -> g'
  | Error e -> Alcotest.fail e

let test_roundtrip_fixtures () =
  List.iter
    (fun g -> check_bool "roundtrip equality" true (Graph.equal g (roundtrip g)))
    [ petersen (); house (); Generators.complete 7; Graph.create ~n:5; Graph.create ~n:0 ]

let test_format_shape () =
  let s = Serial.to_string (Generators.path_graph 3) in
  Alcotest.(check string) "exact format" "n 3\n0 1\n1 2\n" s

let test_comments_and_blanks () =
  match Serial.of_string "# a comment\n\nn 4\n0 1 # trailing\n\n2 3\n" with
  | Ok g ->
      check_int "n" 4 (Graph.n g);
      check_int "m" 2 (Graph.m g)
  | Error e -> Alcotest.fail e

let test_missing_header () =
  match Serial.of_string "0 1\n" with
  | Error msg -> check_bool "mentions header" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "should reject"

let test_duplicate_header () =
  match Serial.of_string "n 3\nn 4\n" with
  | Error msg -> check_bool "line 2 flagged" true (String.length msg > 6 && String.sub msg 0 6 = "line 2")
  | Ok _ -> Alcotest.fail "should reject"

let test_bad_edge () =
  (match Serial.of_string "n 3\n0 foo\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-numeric vertex");
  (match Serial.of_string "n 3\n0 5\n" with
  | Error msg -> check_bool "range error surfaces" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "out-of-range vertex");
  match Serial.of_string "n 3\n1 1\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "self loop"

let test_empty_input () =
  match Serial.of_string "" with Error _ -> () | Ok _ -> Alcotest.fail "empty should fail"

let test_file_roundtrip () =
  let path = Filename.temp_file "lhg_serial" ".edges" in
  let g = petersen () in
  Serial.write_file ~path g;
  (match Serial.read_file ~path with
  | Ok g' -> check_bool "file roundtrip" true (Graph.equal g g')
  | Error e -> Alcotest.fail e);
  Sys.remove path

(* A path that cannot be read is an Error, not a Sys_error: a file
   removed before the read, and a directory. *)
let test_unreadable_path () =
  let path = Filename.temp_file "lhg_serial" ".edges" in
  Sys.remove path;
  (match Serial.read_file ~path with
  | Error msg -> check_bool "missing file named" true (String.starts_with ~prefix:path msg)
  | Ok _ -> Alcotest.fail "missing file read");
  match Serial.read_file ~path:(Filename.get_temp_dir_name ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "directory read"

let prop_random_roundtrip =
  qcheck ~count:60 "serialisation roundtrips" QCheck2.Gen.(int_bound 100_000) (fun seed ->
      let rngv = Graph_core.Prng.create ~seed in
      let n = Graph_core.Prng.int rngv 30 in
      let g = Generators.gnp rngv ~n ~p:0.3 in
      match Serial.of_string (Serial.to_string g) with
      | Ok g' -> Graph.equal g g'
      | Error _ -> false)

let prop_parser_never_crashes =
  qcheck ~count:300 "of_string is total on junk input"
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\x7f') (int_bound 200))
    (fun junk ->
      match Serial.of_string junk with Ok _ -> true | Error _ -> true)

let suite =
  [
    Alcotest.test_case "roundtrip fixtures" `Quick test_roundtrip_fixtures;
    Alcotest.test_case "format shape" `Quick test_format_shape;
    Alcotest.test_case "comments and blanks" `Quick test_comments_and_blanks;
    Alcotest.test_case "missing header" `Quick test_missing_header;
    Alcotest.test_case "duplicate header" `Quick test_duplicate_header;
    Alcotest.test_case "bad edge" `Quick test_bad_edge;
    Alcotest.test_case "empty input" `Quick test_empty_input;
    Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
    Alcotest.test_case "unreadable path" `Quick test_unreadable_path;
    prop_random_roundtrip;
    prop_parser_never_crashes;
  ]
