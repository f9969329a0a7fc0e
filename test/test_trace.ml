open Helpers
module Generators = Graph_core.Generators
module Csr = Graph_core.Csr
module Sim = Netsim.Sim
module Network = Netsim.Network
module Trace = Netsim.Trace

let traced_run ?loss_rate ?crashed_mid () =
  let sim = Sim.create ~seed:3 () in
  let g = Generators.cycle 6 in
  let trace = Trace.create () in
  let net = Network.create ~sim ~csr:(Csr.of_graph g) ?loss_rate ~trace () in
  Network.set_receiver net (fun ~dst ~src:_ hop ->
      (* relay once around the ring *)
      if dst <> 0 then Network.send net ~src:dst ~dst:((dst + 1) mod 6) (hop + 1));
  (match crashed_mid with Some v -> Network.crash net v | None -> ());
  Network.send net ~src:0 ~dst:1 1;
  Sim.run sim;
  (trace, Network.stats net)

let test_send_and_delivery_recorded () =
  let trace, stats = traced_run () in
  let evs = Trace.events trace in
  let sends = List.filter (fun e -> e.Trace.kind = Trace.Sent) evs in
  let delivered = List.filter (fun e -> e.Trace.kind = Trace.Delivered) evs in
  check_int "sends traced" stats.Network.sent (List.length sends);
  check_int "deliveries traced" stats.Network.delivered (List.length delivered)

let test_every_delivery_has_prior_send () =
  let trace, _ = traced_run () in
  let evs = Trace.events trace in
  List.iter
    (fun e ->
      if e.Trace.kind = Trace.Delivered then begin
        let matching =
          List.find_opt
            (fun s ->
              s.Trace.kind = Trace.Sent && s.Trace.seq = e.Trace.seq
              && s.Trace.src = e.Trace.src && s.Trace.dst = e.Trace.dst)
            evs
        in
        match matching with
        | None -> Alcotest.fail "delivery without send"
        | Some s -> check_bool "causality" true (s.Trace.time <= e.Trace.time)
      end)
    evs

let test_chronological_order () =
  let trace, _ = traced_run () in
  let times = List.map (fun e -> e.Trace.time) (Trace.events trace) in
  let rec mono = function
    | a :: (b :: _ as rest) -> a <= b && mono rest
    | _ -> true
  in
  check_bool "non-decreasing times" true (mono times)

let test_crash_drop_recorded () =
  let trace, stats = traced_run ~crashed_mid:3 () in
  let drops =
    List.filter (fun e -> e.Trace.kind = Trace.Dropped_crash) (Trace.events trace)
  in
  check_int "crash drops traced" stats.Network.dropped_crash (List.length drops);
  check_bool "at least one" true (List.length drops > 0)

let test_unique_sequence_numbers () =
  let trace, _ = traced_run () in
  let seqs =
    List.filter_map
      (fun e -> if e.Trace.kind = Trace.Sent then Some e.Trace.seq else None)
      (Trace.events trace)
  in
  check_int "distinct" (List.length seqs) (List.length (List.sort_uniq compare seqs))

let test_ring_buffer_eviction () =
  let t = Trace.create ~capacity:4 () in
  for i = 0 to 9 do
    Trace.record t { Trace.time = float_of_int i; kind = Trace.Sent; src = 0; dst = 1; seq = i }
  done;
  check_int "retained" 4 (Trace.count t);
  check_int "evicted" 6 (Trace.dropped_events t);
  let seqs = List.map (fun e -> e.Trace.seq) (Trace.events t) in
  Alcotest.(check (list int)) "newest kept in order" [ 6; 7; 8; 9 ] seqs

let test_pp_event () =
  let s =
    Format.asprintf "%a" Trace.pp_event
      { Trace.time = 1.5; kind = Trace.Delivered; src = 2; dst = 7; seq = 42 }
  in
  Alcotest.(check string) "render" "[1.500] #42 delivered 2->7" s

let test_invalid_capacity () =
  Alcotest.check_raises "zero" (Invalid_argument "Trace.create: capacity must be positive")
    (fun () -> ignore (Trace.create ~capacity:0 ()))

(* Attaching a trace must not change a run: the recorder only watches.
   Over random seeds and every network knob at once (capacity, bands,
   loss, processing delay), a traced run's lhg-traffic/1 document — for
   flood, trees and gossip dissemination — and its Flooding result equal
   the untraced run's. *)
let prop_trace_leaves_runs_unchanged =
  qcheck ~count:50 "tracing leaves traffic documents and flooding unchanged"
    QCheck2.Gen.(
      tup4 (int_bound 10_000) (int_bound 2) (pair (int_range 1 3) (int_range 1 2))
        (pair bool bool))
    (fun (seed, strategy, (queue_cap, bands), (lossy, slow)) ->
      let g = (Lhg_core.Build.kdiamond_exn ~n:46 ~k:4).Lhg_core.Build.graph in
      let env =
        Flood.Env.default |> Flood.Env.with_seed seed
        |> Flood.Env.with_link_capacity 0.5
        |> Flood.Env.with_queue_cap queue_cap
        |> Flood.Env.with_bands bands
        |> Flood.Env.with_loss_rate (if lossy then 0.1 else 0.0)
        |> Flood.Env.with_processing_delay (if slow then 0.25 else 0.0)
      in
      let traced () = Flood.Env.with_trace (Trace.create ~capacity:4096 ()) env in
      let workload =
        Traffic.Workload.(
          default |> with_source_count 2 |> with_chunks_per_source 3 |> with_rate 0.5
          |> with_dissemination (List.nth [ Flood; Trees; Gossip ] strategy))
      in
      let doc env =
        Scenario.report_traffic ~topology:"kdiamond" ~n:46 ~k:4 ~seed
          (Traffic.Driver.run_csr_env ~env ~csr:(Csr.of_graph g) ~workload ())
      in
      let flood env = Flood.Flooding.run_csr_env ~env ~csr:(Csr.of_graph g) ~source:(seed mod 46) () in
      String.equal (doc env) (doc (traced ())) && flood env = flood (traced ()))

let suite =
  [
    Alcotest.test_case "send and delivery recorded" `Quick test_send_and_delivery_recorded;
    Alcotest.test_case "delivery has prior send" `Quick test_every_delivery_has_prior_send;
    Alcotest.test_case "chronological order" `Quick test_chronological_order;
    Alcotest.test_case "crash drop recorded" `Quick test_crash_drop_recorded;
    Alcotest.test_case "unique sequence numbers" `Quick test_unique_sequence_numbers;
    Alcotest.test_case "ring buffer eviction" `Quick test_ring_buffer_eviction;
    Alcotest.test_case "pp event" `Quick test_pp_event;
    Alcotest.test_case "invalid capacity" `Quick test_invalid_capacity;
    prop_trace_leaves_runs_unchanged;
  ]
