(* Topo.Registry: the catalogue agrees with the builders it fronts. *)

module R = Topo.Registry

let test_names_unique_and_complete () =
  let names = R.names in
  Alcotest.(check int) "no duplicates"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " registered") true (List.mem expected names))
    [ "ktree"; "kdiamond"; "kdiamond_rich"; "jd"; "harary"; "hypercube"; "expander"; "cycle"; "complete" ]

let test_unknown_kind () =
  (match R.build_graph ~kind:"nosuch" ~n:10 ~k:3 ~seed:1 with
  | Ok _ -> Alcotest.fail "unknown kind built"
  | Error msg ->
      Alcotest.(check bool) "message names the kind" true
        (String.length msg > 0
        &&
        let needle = "nosuch" in
        let nl = String.length needle and ml = String.length msg in
        let rec go i = i + nl <= ml && (String.sub msg i nl = needle || go (i + 1)) in
        go 0));
  Alcotest.(check bool) "find is None" true (R.find "nosuch" = None)

let test_admissible_matches_build () =
  (* for every entry, admissible <-> build succeeds, over a parameter sweep *)
  List.iter
    (fun e ->
      for n = 6 to 40 do
        for k = 2 to 5 do
          let adm = e.R.admissible ~n ~k in
          let built =
            match e.R.build ~n ~k ~seed:7 with Ok _ -> true | Error _ -> false
          in
          if adm <> built then
            Alcotest.failf "%s: admissible=%b but build=%b at (n=%d, k=%d)" e.R.name adm built n
              k
        done
      done)
    R.all

let test_build_respects_n () =
  List.iter
    (fun (kind, n, k) ->
      match R.build_graph ~kind ~n ~k ~seed:1 with
      | Error e -> Alcotest.failf "%s: %s" kind e
      | Ok g -> Alcotest.(check int) (kind ^ " vertex count") n (Graph_core.Graph.n g))
    [
      ("ktree", 24, 3);
      ("kdiamond", 24, 3);
      ("kdiamond_rich", 24, 3);
      ("jd", 24, 3);
      ("harary", 24, 3);
      ("hypercube", 16, 4);
      ("expander", 24, 4);
      ("cycle", 24, 3);
      ("complete", 24, 3);
    ]

let test_lhg_entries_verify () =
  (* every construction-backed entry builds a graph the independent
     verifier accepts *)
  List.iter
    (fun e ->
      match e.R.construction with
      | None -> ()
      | Some _ -> (
          match e.R.build ~n:22 ~k:3 ~seed:1 with
          | Error _ -> () (* jd has gaps; admissibility is tested above *)
          | Ok g ->
              Alcotest.(check bool)
                (e.R.name ^ " verifies as LHG")
                true
                (Lhg_core.Verify.is_lhg ~check_minimality:false g ~k:3)))
    R.all

let test_witness_matches_graph () =
  (match R.witness ~kind:"kdiamond_rich" ~n:13 ~k:3 with
  | None -> Alcotest.fail "kdiamond_rich witness missing"
  | Some b ->
      Alcotest.(check int) "witness graph size" 13 (Graph_core.Graph.n b.Lhg_core.Build.graph);
      Alcotest.(check int) "witness k" 3 b.Lhg_core.Build.k);
  Alcotest.(check bool) "no witness for plain families" true
    (R.witness ~kind:"cycle" ~n:10 ~k:2 = None);
  Alcotest.(check bool) "no witness for unknown" true (R.witness ~kind:"zzz" ~n:10 ~k:2 = None)

let test_build_construction_dispatch () =
  (* Build.build and the named wrappers produce identical graphs *)
  let pairs =
    [
      (Lhg_core.Build.Ktree, Lhg_core.Build.ktree ~n:20 ~k:3);
      (Lhg_core.Build.Kdiamond, Lhg_core.Build.kdiamond ~n:20 ~k:3);
      (Lhg_core.Build.Kdiamond_rich, Lhg_core.Build.kdiamond_unshared_rich ~n:20 ~k:3);
      (Lhg_core.Build.Jd { strict = true }, Lhg_core.Build.jd ~n:20 ~k:3 ());
    ]
  in
  List.iter
    (fun (c, named) ->
      match (Lhg_core.Build.build c ~n:20 ~k:3, named) with
      | Ok a, Ok b ->
          Alcotest.(check (list (pair int int)))
            (Lhg_core.Build.construction_name c ^ " same edges")
            (Graph_core.Graph.edges a.Lhg_core.Build.graph)
            (Graph_core.Graph.edges b.Lhg_core.Build.graph)
      | Error _, Error _ -> ()
      | _ -> Alcotest.failf "%s: wrapper disagrees" (Lhg_core.Build.construction_name c))
    pairs;
  (* the new _exn variant *)
  let b = Lhg_core.Build.kdiamond_unshared_rich_exn ~n:13 ~k:3 in
  Alcotest.(check int) "rich exn builds" 13 (Graph_core.Graph.n b.Lhg_core.Build.graph);
  Alcotest.check_raises "build_exn propagates errors"
    (Invalid_argument "Build.ktree: n = 3 is too small: the smallest graph for this k has 6 nodes")
    (fun () -> ignore (Lhg_core.Build.build_exn Lhg_core.Build.Ktree ~n:3 ~k:3))

(* the uniform [csr] field: every entry's snapshot is the frozen form
   of the adjacency-set graph it fronts, slot for slot — same row
   offsets, same neighbour order — whether or not the entry takes the
   [direct_csr] shortcut past the intermediate Graph.t, and on both
   storage backends where the shortcut exists. The simulators read only
   the registry's snapshot, and their tie order follows its rows. *)
let rows c =
  let module Csr = Graph_core.Csr in
  let n = Csr.n c and slots = Csr.degree_sum c in
  match Csr.storage c with
  | Csr.Ints { offsets; neighbors } -> (Array.sub offsets 0 (n + 1), Array.sub neighbors 0 slots)
  | Csr.Big { offsets; neighbors } ->
      (Array.init (n + 1) (Bigarray.Array1.get offsets), Array.init slots (Bigarray.Array1.get neighbors))

let test_csr_equals_build () =
  List.iter
    (fun e ->
      List.iter
        (fun (n, k) ->
          let label big = Printf.sprintf "%s n=%d k=%d big=%b" e.R.name n k big in
          let bigs = if e.R.direct_csr then [ false; true ] else [ false ] in
          List.iter
            (fun big ->
              match (e.R.build ~n ~k ~seed:7, e.R.csr ~big ~n ~k ~seed:7) with
              | Ok g, Ok c ->
                  let off, nbr = rows (Graph_core.Csr.of_graph g) and off', nbr' = rows c in
                  Alcotest.(check (array int)) (label big ^ ": offsets") off off';
                  Alcotest.(check (array int)) (label big ^ ": neighbours") nbr nbr';
                  Alcotest.(check bool) (label big ^ ": backend") big (Graph_core.Csr.is_bigarray c)
              | Error a, Error b -> Alcotest.(check string) (label big ^ ": same error") a b
              | Ok _, Error b -> Alcotest.failf "%s: graph built but csr failed: %s" (label big) b
              | Error a, Ok _ -> Alcotest.failf "%s: csr built but graph failed: %s" (label big) a)
            bigs)
        [ (14, 3); (16, 4); (46, 4); (47, 4); (64, 5); (9, 2) ])
    R.all

let test_direct_csr_flags () =
  (* the entries that bypass the Graph.t intermediate say so *)
  List.iter
    (fun (name, expected) ->
      match R.find name with
      | None -> Alcotest.failf "%s not registered" name
      | Some e -> Alcotest.(check bool) (name ^ " direct_csr") expected e.R.direct_csr)
    [ ("cycle", true); ("complete", true); ("hypercube", true); ("kdiamond", true); ("expander", false) ]

let suite =
  [
    Alcotest.test_case "names unique and complete" `Quick test_names_unique_and_complete;
    Alcotest.test_case "unknown kind" `Quick test_unknown_kind;
    Alcotest.test_case "admissible matches build" `Quick test_admissible_matches_build;
    Alcotest.test_case "build respects n" `Quick test_build_respects_n;
    Alcotest.test_case "lhg entries verify" `Quick test_lhg_entries_verify;
    Alcotest.test_case "witness matches graph" `Quick test_witness_matches_graph;
    Alcotest.test_case "construction dispatch" `Quick test_build_construction_dispatch;
    Alcotest.test_case "csr = build, slot for slot" `Quick test_csr_equals_build;
    Alcotest.test_case "direct csr flags" `Quick test_direct_csr_flags;
  ]
