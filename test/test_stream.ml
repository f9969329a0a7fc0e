(* Obs.Stream: the shared versioned JSON-document writer behind
   lhg-chaos/1, lhg-reconfig/2 and lhg-traffic/1. *)

open Helpers
module S = Obs.Stream

let test_scalars_and_nesting () =
  let s = S.create ~schema:"lhg-test/1" () in
  S.str s "name" "a \"quoted\" value";
  S.int s "count" 3;
  S.float s "ratio" 0.5;
  S.float s "bad" Float.nan;
  S.bool s "ok" true;
  S.null s "missing";
  S.obj s "nested" (fun s -> S.int s "x" 1);
  S.arr s "items" (fun s ->
      S.element s (fun s -> S.int s "i" 0);
      S.element_raw s "7");
  S.summary s (fun s -> S.bool s "done" true);
  let doc = S.contents s in
  let contains needle =
    let nl = String.length needle and hl = String.length doc in
    let rec go i = i + nl <= hl && (String.sub doc i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "schema first" true
    (String.length doc > 30 && String.sub doc 0 2 = "{\n"
    && contains {|"schema": "lhg-test/1"|});
  check_bool "escaped string" true (contains {|a \"quoted\" value|});
  check_bool "non-finite clamped" true (contains {|"bad": 0|});
  check_bool "null" true (contains {|"missing": null|});
  check_bool "nested object indented" true (contains "  \"nested\": {\n    \"x\": 1\n  }");
  check_bool "array elements" true (contains "{\n      \"i\": 0\n    },\n    7");
  check_bool "summary block" true (contains {|"summary"|});
  check_bool "trailing newline" true (doc.[String.length doc - 1] = '\n')

let test_errors () =
  let s = S.create ~schema:"x/1" () in
  let _ = S.contents s in
  Alcotest.check_raises "write after close"
    (Invalid_argument "Obs.Stream: document already closed") (fun () -> S.int s "k" 1)

let test_embed () =
  let child = S.create ~schema:"child/1" () in
  S.int child "v" 9;
  let parent = S.create ~schema:"parent/1" () in
  S.obj parent "wrap" (fun s -> S.embed s "inner" (S.contents child));
  let doc = S.contents parent in
  let contains needle =
    let nl = String.length needle and hl = String.length doc in
    let rec go i = i + nl <= hl && (String.sub doc i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "child re-indented" true (contains "\"inner\": {\n      \"schema\": \"child/1\"")

let suite =
  [
    Alcotest.test_case "scalars and nesting" `Quick test_scalars_and_nesting;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "embed" `Quick test_embed;
  ]
