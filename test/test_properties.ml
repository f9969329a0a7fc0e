(* Cross-cutting randomised properties tying the subsystems together. *)
open Helpers
module Graph = Graph_core.Graph
module Prng = Graph_core.Prng
module Build = Lhg_core.Build
module Csr = Graph_core.Csr

let prop_incremental_tracks_canonical_count =
  qcheck ~count:30 "incremental overlay sizes track join/leave arithmetic"
    QCheck2.Gen.(pair (int_range 3 5) (int_bound 10_000))
    (fun (k, seed) ->
      let t = Overlay.Incremental.start ~k () in
      let rngv = Prng.create ~seed in
      let expected = ref (2 * k) in
      let ok = ref true in
      for _ = 1 to 60 do
        if !expected <= (2 * k) + 1 || Prng.bool rngv then begin
          ignore (Overlay.Incremental.join t);
          incr expected
        end
        else begin
          (match Overlay.Incremental.leave t with Ok _ -> () | Error _ -> ok := false);
          decr expected
        end;
        if Overlay.Incremental.n t <> !expected then ok := false
      done;
      !ok)

let prop_pif_detection_after_last_delivery_random_latency =
  qcheck ~count:40 "PIF detects only after the last delivery, any latency"
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let rngv = Prng.create ~seed in
      let n = (2 * 4) + Prng.int rngv 40 in
      match Build.kdiamond ~n ~k:4 with
      | Error _ -> false
      | Ok b ->
          let r =
            Flood.Pif.run_env ~env:(Flood.Env.make ~latency:(Netsim.Network.uniform_latency ~lo:0.5 ~hi:2.5) ~seed ()) ~csr:(Csr.of_graph b.Build.graph) ~source:0 ()
          in
          r.Flood.Pif.completed
          && r.Flood.Pif.completion_detected_at >= r.Flood.Pif.last_delivery_at)

let prop_route_fallback_only_beyond_k_failures =
  qcheck ~count:40 "route succeeds under any k-1 random failures"
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let rngv = Prng.create ~seed in
      let k = 3 + Prng.int rngv 3 in
      let n = (2 * k) + 10 + Prng.int rngv 40 in
      match Build.kdiamond ~n ~k with
      | Error _ -> false
      | Ok b ->
          let avoid = Array.make n false in
          let src = Prng.int rngv n in
          let dst = (src + 1 + Prng.int rngv (n - 1)) mod n in
          let placed = ref 0 in
          while !placed < k - 1 do
            let v = Prng.int rngv n in
            if v <> src && v <> dst && not avoid.(v) then begin
              avoid.(v) <- true;
              incr placed
            end
          done;
          (match Lhg_core.Route.route ~avoid b ~src ~dst with
          | Some p -> List.for_all (fun v -> not avoid.(v)) p
          | None -> false))

let prop_verify_agrees_on_all_three_builders =
  qcheck ~count:25 "all three builders produce verifier-approved graphs"
    QCheck2.Gen.(pair (int_range 3 5) (int_bound 20))
    (fun (k, extra) ->
      let n = (2 * k) + (2 * extra * (k - 1)) in
      (* choose n on the JD-representable lattice so all three succeed *)
      let check build =
        match build with
        | Ok (b : Build.t) ->
            Lhg_core.Verify.is_lhg ~check_minimality:false b.Build.graph ~k
        | Error _ -> false
      in
      check (Build.jd ~n ~k ()) && check (Build.ktree ~n ~k) && check (Build.kdiamond ~n ~k))

let prop_serialized_lhg_reverifies =
  qcheck ~count:30 "serialise/parse preserves LHG-ness"
    QCheck2.Gen.(pair (int_range 3 5) (int_bound 30))
    (fun (k, extra) ->
      let n = (2 * k) + extra in
      match Build.kdiamond ~n ~k with
      | Error _ -> false
      | Ok b -> (
          match Graph_core.Serial.of_string (Graph_core.Serial.to_string b.Build.graph) with
          | Error _ -> false
          | Ok g ->
              Graph.equal g b.Build.graph
              && Graph_core.Connectivity.is_k_vertex_connected g ~k))

let prop_flood_messages_invariant_under_latency =
  qcheck ~count:30 "flooding message count is latency-independent"
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let rngv = Prng.create ~seed in
      let n = 8 + Prng.int rngv 60 in
      match Build.ktree ~n ~k:4 with
      | Error _ -> true
      | Ok b ->
          let unit_lat = Flood.Flooding.run_csr_env ~env:Flood.Env.default ~csr:(Csr.of_graph b.Build.graph) ~source:0 () in
          let rand_lat =
            Flood.Flooding.run_csr_env ~env:(Flood.Env.make ~latency:(Netsim.Network.uniform_latency ~lo:0.1 ~hi:5.0) ~seed ()) ~csr:(Csr.of_graph b.Build.graph) ~source:0 ()
          in
          unit_lat.Flood.Flooding.messages_sent = rand_lat.Flood.Flooding.messages_sent)

let suite =
  [
    prop_incremental_tracks_canonical_count;
    prop_pif_detection_after_last_delivery_random_latency;
    prop_route_fallback_only_beyond_k_failures;
    prop_verify_agrees_on_all_three_builders;
    prop_serialized_lhg_reverifies;
    prop_flood_messages_invariant_under_latency;
  ]
