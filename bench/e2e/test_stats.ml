(* Stats on synthetic samples. Quartile references come from Python's
   statistics.quantiles(data, n=4), the spread the benchmark's bounds
   are checked with. *)

let close = Alcotest.float 1e-12
let triple = Alcotest.(triple close close close)

let test_median () =
  Alcotest.check close "odd" 3.0 (Stats.median [ 5.; 1.; 4.; 2.; 3. ]);
  Alcotest.check close "even" 2.5 (Stats.median [ 4.; 3.; 2.; 1. ]);
  Alcotest.check close "ties" 2.0 (Stats.median [ 2.; 5.; 2.; 2. ]);
  Alcotest.check close "single" 7.0 (Stats.median [ 7. ])

let test_quartiles () =
  Alcotest.check triple "odd" (1.5, 3.0, 4.5) (Stats.quartiles [ 5.; 1.; 4.; 2.; 3. ]);
  Alcotest.check triple "even" (1.25, 2.5, 3.75) (Stats.quartiles [ 4.; 3.; 2.; 1. ]);
  Alcotest.check triple "ties" (2.0, 2.0, 4.25) (Stats.quartiles [ 2.; 5.; 2.; 2. ]);
  Alcotest.check triple "two" (0.5, 2.0, 3.5) (Stats.quartiles [ 3.; 1. ]);
  Alcotest.check triple "ten" (2.75, 5.5, 8.25)
    (Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check triple "single" (7.0, 7.0, 7.0) (Stats.quartiles [ 7. ])

let test_summarize () =
  let s = Stats.summarize [ 2.; 9.; 4.; 4. ] in
  Alcotest.(check int) "count" 4 s.Stats.count;
  Alcotest.check close "min" 2.0 s.Stats.min;
  Alcotest.check close "median" 4.0 s.Stats.median;
  Alcotest.check close "max" 9.0 s.Stats.max;
  Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: no samples") (fun () ->
      ignore (Stats.summarize []))

let span id parent start stop = { Stats.id; parent; start; stop }

let test_self_time () =
  let root = span 0 None 0.0 10.0 in
  let a = span 1 (Some 0) 1.0 4.0 in
  let b = span 2 (Some 0) 3.0 6.0 (* overlaps a *) in
  let c = span 3 (Some 1) 1.5 2.0 (* nested in a: not a child of root *) in
  let d = span 4 (Some 0) 9.0 12.0 (* runs past the root's end *) in
  let spans = [ root; a; b; c; d ] in
  Alcotest.check close "root" (10.0 -. 5.0 -. 1.0) (Stats.self_time spans root);
  Alcotest.check close "nested" 2.5 (Stats.self_time spans a);
  Alcotest.check close "leaf" 0.5 (Stats.self_time spans c);
  Alcotest.check close "no children" 3.0 (Stats.self_time spans b)

let () =
  Alcotest.run "e2e_stats"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "summarize" `Quick test_summarize;
          Alcotest.test_case "self time" `Quick test_self_time;
        ] );
    ]
