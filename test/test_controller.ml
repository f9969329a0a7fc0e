(* Overlay.Controller: epoch-based reconfiguration, every epoch
   verified in full. The load-bearing property: the lhg-reconfig/2
   epoch diffs are a faithful wire protocol — replaying them from the
   base overlay reproduces the authoritative graph exactly, and each
   epoch's verdict is Verify.quick on the replayed graph. *)

open Helpers
module Graph = Graph_core.Graph
module Controller = Overlay.Controller
module Cert = Overlay.Cert

let norm (u, v) = if u <= v then (u, v) else (v, u)

(* Apply one epoch diff: (edges \ removed) ∪ added on n_after vertices. *)
let replay g ~n_after (d : Overlay.Diff.t) =
  let removed = List.rev_map norm d.Overlay.Diff.removed in
  let kept =
    List.filter (fun e -> not (List.mem (norm e) removed)) (Graph.edges g)
  in
  Graph.of_edges ~n:n_after (kept @ d.Overlay.Diff.added)

(* Replay every epoch from the frozen base; check the epoch's verdict
   against Verify.quick on each intermediate graph; end on the
   authoritative graph. *)
let check_replay t epochs =
  let g = ref (Controller.base_graph t) in
  List.for_all
    (fun (e : Controller.epoch) ->
      g := replay !g ~n_after:e.Controller.n_after e.Controller.diff;
      Controller.epoch_verified e
      = Lhg_core.Verify.quick !g ~k:(Controller.k t))
    epochs
  && Graph.equal !g (Controller.graph t)

let run_trace ?verify ?chaos ~family ~k ~n0 ~seed ~steps ~batch () =
  let trace = Controller.random_trace ~seed ~family ~k ~n0 ~steps () in
  match Controller.create ?verify ?chaos ~family ~k ~n:n0 () with
  | Error e -> Alcotest.fail (Overlay.Error.to_string e)
  | Ok t -> (
      match Controller.run ~batch t trace with
      | Error e -> Alcotest.fail (Overlay.Error.to_string e)
      | Ok epochs -> (t, epochs))

let prop_replay_kdiamond =
  qcheck ~count:25 "kdiamond epochs replay from base"
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 30))
    (fun (seed, steps) ->
      let t, epochs =
        run_trace ~family:Overlay.Membership.Kdiamond ~k:4 ~n0:20 ~seed ~steps
          ~batch:4 ()
      in
      check_replay t epochs)

(* ktree has no repair engine, so this pins the rebuild-only path
   (wholesale graph replacement, shrinking resizes included). *)
let prop_replay_ktree =
  qcheck ~count:10 "ktree rebuild-only epochs replay from base"
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 16))
    (fun (seed, steps) ->
      let t, epochs =
        run_trace ~family:Overlay.Membership.Ktree ~k:3 ~n0:12 ~seed ~steps
          ~batch:3 ()
      in
      check_replay t epochs)

(* At k = 3, JD exists at every even size from 10 up. An even-length
   batch moves the size by an even amount, and 12 steps from 24 never
   reach 8, so every epoch's target is buildable. *)
let prop_replay_jd =
  qcheck ~count:10 "jd epochs replay from base"
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 6))
    (fun (seed, half) ->
      let t, epochs =
        run_trace ~family:Overlay.Membership.Jd ~k:3 ~n0:24 ~seed ~steps:(2 * half) ~batch:2 ()
      in
      check_replay t epochs)

(* Classic H(4, n) meets the P4 bound up to n = 57 and misses it from
   n = 58 on, so traces from 56 mix verified and unverified epochs. *)
let prop_replay_harary =
  qcheck ~count:10 "harary rebuild-only epochs replay from base"
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 24))
    (fun (seed, steps) ->
      let t, epochs =
        run_trace ~family:Overlay.Membership.Harary_classic ~k:4 ~n0:56 ~seed ~steps
          ~batch:4 ()
      in
      check_replay t epochs)

let test_full_mode () =
  let _, epochs =
    run_trace ~family:Overlay.Membership.Kdiamond ~k:4 ~n0:16 ~seed:7 ~steps:12 ~batch:4 ()
  in
  check_bool "some epochs" true (epochs <> []);
  List.iter
    (fun (e : Controller.epoch) ->
      let v = e.Controller.verification in
      check_bool "full mode" true (v.Controller.mode = `Full);
      check_int "no certificate counts" 0
        (v.Controller.reused + v.Controller.revalidated + v.Controller.recomputed);
      check_bool "verified" true (Controller.epoch_verified e))
    epochs

(* [?verify] is accepted and ignored: both settings print the same
   document. *)
let test_verify_shim_inert () =
  let doc verify =
    let t, epochs =
      run_trace ~verify ~family:Overlay.Membership.Kdiamond ~k:4 ~n0:24 ~seed:3 ~steps:24
        ~batch:6 ()
    in
    Controller.run_to_json t epochs
  in
  Alcotest.(check string) "same document" (doc Controller.Cached) (doc Controller.Full)

let test_chaos_audits_run () =
  let adv = Result.get_ok (Chaos.Gen.of_string "min-cut") in
  let _, epochs =
    run_trace
      ~chaos:(Controller.chaos ~plans_per_level:2 ~seed:11 adv)
      ~family:Overlay.Membership.Kdiamond ~k:3 ~n0:12 ~seed:5 ~steps:8 ~batch:4
      ()
  in
  List.iter
    (fun (e : Controller.epoch) ->
      check_bool "audit present" true (e.Controller.audit <> None);
      check_bool "boundary holds" true (Controller.epoch_ok e))
    epochs

let test_floor_rejection () =
  (* kdiamond floor is 2k; a leave at the floor is refused, recorded,
     and the overlay is untouched *)
  match Controller.create ~family:Overlay.Membership.Kdiamond ~k:4 ~n:8 () with
  | Error e -> Alcotest.fail (Overlay.Error.to_string e)
  | Ok t -> (
      Controller.feed t Controller.Leave;
      match Controller.commit_epoch t with
      | Error e -> Alcotest.fail (Overlay.Error.to_string e)
      | Ok e ->
          check_int "nothing applied" 0 e.Controller.applied;
          check_int "one rejection" 1 (List.length e.Controller.rejections);
          (match e.Controller.rejections with
          | [ { Controller.error = Overlay.Error.Below_floor f; _ } ] ->
              check_int "floor is 2k" 8 f.floor
          | _ -> Alcotest.fail "expected Below_floor");
          check_int "size unchanged" 8 (Controller.n t))

(* JD at k = 3 has no graph at n = 8 (nor at odd n), although the
   floor is 2k = 6, and it has no repair engine. Seed 2's trace walks
   from 10 into 8: that epoch refuses both requests with No_topology,
   keeps the overlay, and the run goes on. *)
let test_jd_gap_refused () =
  let t, epochs =
    run_trace ~family:Overlay.Membership.Jd ~k:3 ~n0:12 ~seed:2 ~steps:12 ~batch:2 ()
  in
  check_int "every batch is an epoch" 6 (List.length epochs);
  let gap (e : Controller.epoch) = e.Controller.applied = 0 && e.Controller.rejections <> [] in
  match List.filter gap epochs with
  | [ e ] ->
      check_int "epoch 1" 1 e.Controller.index;
      Alcotest.(check (list int))
        "both requests refused, in order" [ 0; 1 ]
        (List.map (fun (r : Controller.rejection) -> r.Controller.at) e.Controller.rejections);
      List.iter
        (fun (r : Controller.rejection) ->
          match r.Controller.error with
          | Overlay.Error.No_topology { n; k; _ } ->
              check_int "gap size" 8 n;
              check_int "gap k" 3 k
          | e -> Alcotest.fail (Overlay.Error.to_string e))
        e.Controller.rejections;
      check_int "size kept" e.Controller.n_before e.Controller.n_after;
      check_int "empty diff" 0 (Overlay.Diff.cost e.Controller.diff);
      check_bool "no rebuild cost" true (e.Controller.cost_rebuild = None);
      check_bool "every epoch replays and verifies" true
        (check_replay t epochs && List.for_all Controller.epoch_verified epochs)
  | l -> Alcotest.failf "expected one gap epoch, got %d" (List.length l)

let test_parse_trace () =
  match Controller.parse_trace "# warmup\njoin\n\nleave\nresize 12\n" with
  | Error e -> Alcotest.fail (Overlay.Error.to_string e)
  | Ok reqs ->
      Alcotest.(check (list string))
        "parsed" [ "join"; "leave"; "resize 12" ]
        (List.map Controller.request_to_string reqs)

let test_parse_trace_error () =
  match Controller.parse_trace "join\nfrobnicate\n" with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error (Overlay.Error.Invalid_trace { line; _ }) -> check_int "line" 2 line
  | Error e -> Alcotest.fail (Overlay.Error.to_string e)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_json_schema () =
  let t, epochs =
    run_trace ~family:Overlay.Membership.Kdiamond ~k:4 ~n0:16 ~seed:2 ~steps:10
      ~batch:5 ()
  in
  let doc = Controller.run_to_json t epochs in
  List.iter
    (fun needle -> check_bool needle true (contains doc needle))
    [
      {|"schema": "lhg-reconfig/2"|};
      {|"strategy"|};
      {|"diff"|};
      {|"verification"|};
      {|"verified": true|};
      {|"summary"|};
      {|"all_verified": true|};
    ];
  List.iter
    (fun gone -> check_bool (gone ^ " dropped") false (contains doc gone))
    [ {|"mode"|}; {|"reused"|}; {|"cached_epochs"|}; {|"full_verifies"|} ]

(* The cache itself: witnesses survive an honest rebuild, and breaking
   minimal k-connectivity (any single edge removal does) is caught. *)
let test_cert_detects_damage () =
  let g = (Lhg_core.Build.kdiamond_exn ~n:24 ~k:4).Lhg_core.Build.graph in
  let c = Cert.create ~k:4 in
  check_bool "arms on a valid graph" true (Cert.rebuild c ~graph:g);
  check_bool "armed" true (Cert.armed c);
  let u, v = List.hd (Graph.edges g) in
  let g' = Graph.without_edge g u v in
  let r = Cert.check c ~graph:g' ~removed:[ (u, v) ] in
  check_bool "damage detected" false (Cert.ok r);
  check_bool "disarmed" false (Cert.armed c);
  check_bool "re-arms on the valid graph" true (Cert.rebuild c ~graph:g)

(* The certificate's witnesses are valid on every Registry family:
   each stored fan is k paths [h; …; u], one from each hub in hub order,
   over edges of the graph and sharing only u; each hub pair has k
   internally disjoint paths, read off the same probes Cert reads. The
   cache arms exactly when the reference κ is at least k. *)
let prop_cert_witnesses_valid =
  qcheck ~count:15 "cert witnesses valid: fans and hub pairs, registry families"
    QCheck2.Gen.(triple (int_range 8 30) (int_range 2 4) (int_bound 10_000))
    (fun (n, k, seed) ->
      let hubs = List.init k Fun.id in
      let last p = List.nth p (List.length p - 1) in
      List.for_all
        (fun (_, g) ->
          let c = Cert.create ~k in
          let armed = Cert.rebuild c ~graph:g in
          let pr = Graph_core.Connectivity.probe (Graph_core.Csr.of_graph g) in
          let fans_ok =
            List.for_all
              (fun u ->
                match Cert.fan c u with
                | [] -> not armed
                | fan ->
                    List.map List.hd fan = hubs
                    && List.for_all (fun p -> last p = u && is_path g p) fan
                    && internally_disjoint fan)
              (List.init (max 0 (Graph.n g - k)) (fun i -> k + i))
          in
          let pairs_ok =
            (not armed)
            || List.for_all
                 (fun (i, j) ->
                   let paths = Graph_core.Connectivity.pair_paths pr ~k i j in
                   List.length paths = k
                   && List.for_all (fun p -> List.hd p = i && last p = j && is_path g p) paths
                   && internally_disjoint paths)
                 (List.concat_map (fun i -> List.filter_map (fun j -> if j > i then Some (i, j) else None) hubs) hubs)
          in
          fans_ok && pairs_ok && armed = (Graph.n g > k && reference_kappa g >= k))
        (registry_graphs ~n ~k ~seed))

(* Connectivity holds but P4 does not: the classic Harary graph
   H(4, 200) has diameter 50 against a bound of 16. The certificates
   hold, the diameter check fails, and the cache stays armed. *)
let test_cert_diameter_miss () =
  let g = Harary.make ~k:4 ~n:200 in
  let c = Cert.create ~k:4 in
  check_bool "arms" true (Cert.rebuild c ~graph:g);
  let r = Cert.check c ~graph:g ~removed:[] in
  check_bool "connectivity holds" true r.Cert.connectivity_ok;
  check_bool "diameter fails" false r.Cert.diameter_ok;
  check_bool "still armed" true (Cert.armed c);
  check_bool "agrees with Verify.quick" (Lhg_core.Verify.quick g ~k:4) (Cert.ok r)

(* The same graph as a controller overlay: its first epoch is
   committed unverified and printed as such. *)
let test_harary_n200_not_verified () =
  match Controller.create ~family:Overlay.Membership.Harary_classic ~k:4 ~n:200 () with
  | Error e -> Alcotest.fail (Overlay.Error.to_string e)
  | Ok t -> (
      match Controller.commit_epoch t with
      | Error e -> Alcotest.fail (Overlay.Error.to_string e)
      | Ok e ->
          check_bool "not verified" false (Controller.epoch_verified e);
          check_bool "printed" true
            (contains (Format.asprintf "%a" Controller.pp_epoch e) "NOT VERIFIED"))

(* The controller's large-n tier: two epochs at n = 4098, each
   verified. *)
let test_verified_at_n4098 () =
  let _, epochs =
    run_trace ~family:Overlay.Membership.Kdiamond ~k:4 ~n0:4098 ~seed:1 ~steps:16 ~batch:8 ()
  in
  check_int "two epochs" 2 (List.length epochs);
  List.iter (fun e -> check_bool "verified" true (Controller.epoch_verified e)) epochs

(* Two epochs at n = 16386, each verified: Verify.quick decides P4 by
   the eccentricity-bound cover, a few BFS passes per epoch. *)
let test_verified_at_n16386 () =
  let _, epochs =
    run_trace ~family:Overlay.Membership.Kdiamond ~k:4 ~n0:16386 ~seed:1 ~steps:16 ~batch:8 ()
  in
  check_int "two epochs" 2 (List.length epochs);
  List.iter (fun e -> check_bool "verified" true (Controller.epoch_verified e)) epochs

(* Satellite bugfix: churn rejects invalid parameters with typed
   errors instead of looping or misbehaving. *)
let test_churn_validation () =
  let family = Overlay.Membership.Kdiamond and k = 3 and n0 = 12 in
  let run ~steps ~join_probability =
    Overlay.Churn.run (rng ()) ~family ~k ~n0 ~steps ~join_probability ()
  in
  (match run ~steps:10 ~join_probability:2.0 with
  | Error (Overlay.Error.Invalid_probability p) ->
      check_bool "p reported" true (p = 2.0)
  | _ -> Alcotest.fail "expected Invalid_probability");
  (match run ~steps:10 ~join_probability:Float.nan with
  | Error (Overlay.Error.Invalid_probability p) ->
      check_bool "NaN rejected" true (Float.is_nan p)
  | _ -> Alcotest.fail "expected Invalid_probability for NaN");
  match run ~steps:(-1) ~join_probability:0.5 with
  | Error (Overlay.Error.Invalid_steps s) -> check_int "steps reported" (-1) s
  | _ -> Alcotest.fail "expected Invalid_steps"

let suite =
  [
    prop_replay_kdiamond;
    prop_replay_ktree;
    prop_replay_jd;
    prop_replay_harary;
    Alcotest.test_case "full mode" `Quick test_full_mode;
    Alcotest.test_case "verify shim is inert" `Quick test_verify_shim_inert;
    Alcotest.test_case "chaos audits" `Quick test_chaos_audits_run;
    Alcotest.test_case "floor rejection" `Quick test_floor_rejection;
    Alcotest.test_case "parse trace" `Quick test_parse_trace;
    Alcotest.test_case "parse trace error" `Quick test_parse_trace_error;
    Alcotest.test_case "lhg-reconfig/2 json" `Quick test_json_schema;
    Alcotest.test_case "cert detects damage" `Quick test_cert_detects_damage;
    prop_cert_witnesses_valid;
    Alcotest.test_case "cert diameter miss stays armed" `Quick test_cert_diameter_miss;
    Alcotest.test_case "harary n=200 not verified" `Quick test_harary_n200_not_verified;
    Alcotest.test_case "churn validation" `Quick test_churn_validation;
    Alcotest.test_case "verified at n=4098" `Slow test_verified_at_n4098;
    Alcotest.test_case "verified at n=16386" `Slow test_verified_at_n16386;
    Alcotest.test_case "jd gap refused per request" `Quick test_jd_gap_refused;
  ]
