open Helpers
module Graph = Graph_core.Graph
module Csr = Graph_core.Csr
module Generators = Graph_core.Generators
module Sim = Netsim.Sim
module Network = Netsim.Network

let make_net ?latency ?loss_rate () =
  let sim = Sim.create () in
  let g = Generators.cycle 5 in
  let net = Network.create ~sim ~csr:(Csr.of_graph g) ?latency ?loss_rate () in
  (sim, net)

let test_basic_delivery () =
  let sim, net = make_net () in
  let received = ref [] in
  Network.set_receiver net (fun ~dst ~src msg -> received := (dst, src, msg) :: !received);
  Network.send net ~src:0 ~dst:1 42;
  Sim.run sim;
  Alcotest.(check (list (triple int int int))) "one delivery" [ (1, 0, 42) ] !received

let test_latency_applied () =
  let sim, net = make_net ~latency:(Network.constant_latency 2.5) () in
  let at = ref 0.0 in
  Network.set_receiver net (fun ~dst:_ ~src:_ _ -> at := Sim.now sim);
  Network.send net ~src:0 ~dst:1 0;
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "arrival time" 2.5 !at

let test_send_requires_edge () =
  let _, net = make_net () in
  Alcotest.check_raises "non-edge" (Invalid_argument "Network.send: no such edge") (fun () ->
      Network.send net ~src:0 ~dst:2 0)

let test_send_checks_message_range () =
  let _, net = make_net () in
  List.iter
    (fun msg ->
      Alcotest.check_raises "out of range"
        (Invalid_argument "Network.send: message outside [0, 2^58)") (fun () ->
          Network.send net ~src:0 ~dst:1 msg))
    [ -1; 1 lsl 58; max_int ];
  Network.send net ~src:0 ~dst:1 ((1 lsl 58) - 1);
  check_int "largest message sent" 1 (Network.stats net).Network.sent

let test_crashed_source_rejected () =
  let _, net = make_net () in
  Network.crash net 0;
  Alcotest.check_raises "crashed source" (Invalid_argument "Network.send: source is crashed")
    (fun () -> Network.send net ~src:0 ~dst:1 0)

let test_crashed_destination_drops () =
  let sim, net = make_net () in
  let received = ref 0 in
  Network.set_receiver net (fun ~dst:_ ~src:_ _ -> incr received);
  Network.crash net 1;
  Network.send net ~src:0 ~dst:1 0;
  Sim.run sim;
  check_int "nothing delivered" 0 !received;
  let s = Network.stats net in
  check_int "dropped_crash" 1 s.Network.dropped_crash;
  check_int "sent" 1 s.Network.sent

let test_crash_during_flight_drops () =
  let sim, net = make_net ~latency:(Network.constant_latency 5.0) () in
  let received = ref 0 in
  Network.set_receiver net (fun ~dst:_ ~src:_ _ -> incr received);
  Network.send net ~src:0 ~dst:1 0;
  (* crash the destination while the message is in flight *)
  Sim.schedule sim ~delay:1.0 (fun () -> Network.crash net 1);
  Sim.run sim;
  check_int "dropped mid-flight" 0 !received

let test_failed_link_drops () =
  let sim, net = make_net () in
  let received = ref 0 in
  Network.set_receiver net (fun ~dst:_ ~src:_ _ -> incr received);
  Network.fail_link net 0 1;
  check_bool "failed" true (Network.link_failed net 1 0);
  Network.send net ~src:0 ~dst:1 0;
  Network.send net ~src:1 ~dst:0 0;
  Sim.run sim;
  check_int "both directions dead" 0 !received;
  check_int "counted" 2 (Network.stats net).Network.dropped_link

let test_fail_link_requires_edge () =
  let _, net = make_net () in
  Alcotest.check_raises "non-edge" (Invalid_argument "Network.fail_link: no such edge") (fun () ->
      Network.fail_link net 0 2)

let test_loss_rate_statistical () =
  let sim = Sim.create ~seed:7 () in
  let g = Generators.complete 2 in
  let net = Network.create ~sim ~csr:(Csr.of_graph g) ~loss_rate:0.3 () in
  let received = ref 0 in
  Network.set_receiver net (fun ~dst:_ ~src:_ _ -> incr received);
  for _ = 1 to 2000 do
    Network.send net ~src:0 ~dst:1 0
  done;
  Sim.run sim;
  let frac = float_of_int !received /. 2000.0 in
  check_bool "~70% delivered" true (frac > 0.62 && frac < 0.78);
  let s = Network.stats net in
  check_int "accounting adds up" 2000 (s.Network.delivered + s.Network.dropped_random)

let test_alive_mask () =
  let _, net = make_net () in
  Network.crash net 3;
  Alcotest.(check (array bool)) "mask" [| true; true; true; false; true |] (Network.alive_mask net)

let test_invalid_loss_rate () =
  let sim = Sim.create () in
  let g = Generators.cycle 4 in
  Alcotest.check_raises "bad rate" (Invalid_argument "Network.create: loss_rate outside [0,1)")
    (fun () -> ignore (Network.create ~sim ~csr:(Csr.of_graph g) ~loss_rate:1.5 () : Network.t))

let test_uniform_latency_bounds () =
  let rngv = rng () in
  let lat = Network.uniform_latency ~lo:1.0 ~hi:3.0 in
  for _ = 1 to 200 do
    let l = lat rngv ~src:0 ~dst:1 in
    check_bool "in bounds" true (l >= 1.0 && l < 3.0)
  done

(* a NaN bound passes any [x < bound] check; the constructors reject it *)
let test_latency_constructors_reject_nan () =
  let nan = Float.nan in
  List.iter
    (fun (lo, hi) ->
      Alcotest.check_raises
        (Printf.sprintf "uniform %g %g" lo hi)
        (Invalid_argument "Network.uniform_latency")
        (fun () -> ignore (Network.uniform_latency ~lo ~hi : Network.latency)))
    [ (nan, 1.0); (0.5, nan); (nan, nan) ];
  Alcotest.check_raises "exponential nan"
    (Invalid_argument "Network.exponential_latency: mean must exceed the 1.0 floor") (fun () ->
      ignore (Network.exponential_latency ~mean:nan : Network.latency))

(* a model that yields NaN is refused at the send, with nothing queued,
   on the plain and on the capacity path *)
let test_nan_latency_rejected_at_send () =
  List.iter
    (fun link_capacity ->
      let sim = Sim.create () in
      let net =
        Network.create ~sim ~csr:(Csr.of_graph (Generators.cycle 5))
          ~latency:(fun _ ~src:_ ~dst:_ -> Float.nan)
          ?link_capacity ()
      in
      Alcotest.check_raises "nan delay"
        (Invalid_argument "Network.send: latency model produced a NaN delay") (fun () ->
          Network.send net ~src:0 ~dst:1 0);
      check_int "nothing queued" 0 (Sim.pending sim))
    [ None; Some 1.0 ]

(* A NaN setting passes any [x < bound] check and then reads as 0 (no
   loss, no receiver queue); an infinite one sends arrivals to an
   infinite time. Each is refused where it is given. *)
let rejects_setting expected f () =
  Alcotest.check_raises expected (Invalid_argument expected) (fun () -> ignore (f ()))

let cycle5 () = Csr.of_graph (Generators.cycle 5)

let test_nan_loss_rate_rejected =
  rejects_setting "Network.create: loss_rate outside [0,1)" (fun () ->
      Network.create ~sim:(Sim.create ()) ~csr:(cycle5 ()) ~loss_rate:Float.nan ())

let test_nan_processing_delay_rejected =
  rejects_setting "Network.create: processing_delay is NaN or infinite" (fun () ->
      Network.create ~sim:(Sim.create ()) ~csr:(cycle5 ()) ~processing_delay:Float.nan ())

let test_infinite_processing_delay_rejected =
  rejects_setting "Network.create: processing_delay is NaN or infinite" (fun () ->
      Network.create ~sim:(Sim.create ()) ~csr:(cycle5 ()) ~processing_delay:Float.infinity ())

let test_nan_set_loss_rate_rejected () =
  let _, net = make_net () in
  rejects_setting "Network.set_loss_rate: loss_rate outside [0,1)"
    (fun () -> Network.set_loss_rate net Float.nan)
    ();
  Alcotest.(check (float 0.0)) "rate unchanged" 0.0 (Network.loss_rate net)

let test_infinite_uniform_latency_rejected =
  rejects_setting "Network.uniform_latency" (fun () ->
      Network.uniform_latency ~lo:0.0 ~hi:Float.infinity)

let test_infinite_exponential_latency_rejected =
  rejects_setting "Network.exponential_latency: infinite mean" (fun () ->
      Network.exponential_latency ~mean:Float.infinity)

(* a model that yields +infinity is refused at the send like a NaN *)
let test_infinite_latency_rejected_at_send () =
  List.iter
    (fun link_capacity ->
      let sim = Sim.create () in
      let net =
        Network.create ~sim ~csr:(cycle5 ()) ~latency:(Network.constant_latency Float.infinity)
          ?link_capacity ()
      in
      Alcotest.check_raises "infinite delay"
        (Invalid_argument "Network.send: latency model produced an infinite delay") (fun () ->
          Network.send net ~src:0 ~dst:1 0);
      check_int "nothing queued" 0 (Sim.pending sim))
    [ None; Some 1.0 ]

let test_exponential_latency_floor () =
  let rngv = rng ~salt:1 () in
  let lat = Network.exponential_latency ~mean:3.0 in
  for _ = 1 to 200 do
    check_bool "above floor" true (lat rngv ~src:0 ~dst:1 >= 1.0)
  done


let test_processing_delay_serializes () =
  (* two messages arrive at node 1 at t=1; with delay 2 they are handled
     at t=3 and t=5 *)
  let sim = Sim.create () in
  let g = Graph_core.Generators.complete 3 in
  let net = Network.create ~sim ~csr:(Csr.of_graph g) ~processing_delay:2.0 () in
  let times = ref [] in
  Network.set_receiver net (fun ~dst ~src:_ _ -> if dst = 1 then times := Sim.now sim :: !times);
  Network.send net ~src:0 ~dst:1 0;
  Network.send net ~src:2 ~dst:1 0;
  Sim.run sim;
  Alcotest.(check (list (float 1e-9))) "serialized handling" [ 3.0; 5.0 ] (List.rev !times)

let test_processing_delay_zero_is_default () =
  let sim = Sim.create () in
  let g = Graph_core.Generators.complete 3 in
  let net = Network.create ~sim ~csr:(Csr.of_graph g) () in
  let times = ref [] in
  Network.set_receiver net (fun ~dst ~src:_ _ -> if dst = 1 then times := Sim.now sim :: !times);
  Network.send net ~src:0 ~dst:1 0;
  Network.send net ~src:2 ~dst:1 0;
  Sim.run sim;
  Alcotest.(check (list (float 1e-9))) "simultaneous" [ 1.0; 1.0 ] (List.rev !times)

let test_processing_delay_negative_rejected () =
  let sim = Sim.create () in
  let g = Graph_core.Generators.cycle 4 in
  Alcotest.check_raises "negative" (Invalid_argument "Network.create: negative processing_delay")
    (fun () -> ignore (Network.create ~sim ~csr:(Csr.of_graph g) ~processing_delay:(-1.0) () : Network.t))

let test_processing_delay_idle_resets () =
  (* after the queue drains, a later message is handled promptly *)
  let sim = Sim.create () in
  let g = Graph_core.Generators.complete 2 in
  let net = Network.create ~sim ~csr:(Csr.of_graph g) ~processing_delay:1.0 () in
  let times = ref [] in
  Network.set_receiver net (fun ~dst:_ ~src:_ _ -> times := Sim.now sim :: !times);
  Network.send net ~src:0 ~dst:1 0;
  Sim.schedule sim ~delay:10.0 (fun () -> Network.send net ~src:0 ~dst:1 0);
  Sim.run sim;
  Alcotest.(check (list (float 1e-9))) "no stale backlog" [ 2.0; 12.0 ] (List.rev !times)

(* the recovery-semantics pin: crash state is evaluated at delivery
   time, so an in-flight message to a node that recovers before the
   delivery event fires is delivered, not counted dropped_crash *)
let test_recover_delivers_in_flight () =
  let sim, net = make_net ~latency:(Network.constant_latency 5.0) () in
  let received = ref [] in
  Network.set_receiver net (fun ~dst ~src:_ _ -> received := (Sim.now sim, dst) :: !received);
  Network.crash net 1;
  Sim.schedule sim ~delay:1.0 (fun () -> Network.send net ~src:0 ~dst:1 0);
  (* recovery at t=3 < delivery at t=6: the crash window never sees
     the message land *)
  Sim.schedule sim ~delay:3.0 (fun () -> Network.recover net 1);
  Sim.run sim;
  Alcotest.(check (list (pair (float 1e-9) int))) "delivered after recovery" [ (6.0, 1) ]
    !received;
  let s = Network.stats net in
  check_int "delivered" 1 s.Network.delivered;
  check_int "dropped_crash" 0 s.Network.dropped_crash

let test_recover_misses_crash_window () =
  (* same shape, but the message lands inside the crash window *)
  let sim, net = make_net ~latency:(Network.constant_latency 1.0) () in
  let received = ref [] in
  Network.set_receiver net (fun ~dst ~src:_ _ -> received := dst :: !received);
  Network.crash net 1;
  Network.send net ~src:0 ~dst:1 0;
  Sim.schedule sim ~delay:3.0 (fun () -> Network.recover net 1);
  Sim.run sim;
  Alcotest.(check (list int)) "nothing delivered" [] !received;
  let s = Network.stats net in
  check_int "dropped_crash" 1 s.Network.dropped_crash;
  check_bool "recovered and receiving again" false (Network.is_crashed net 1)

let test_recover_validates_and_is_idempotent () =
  let _, net = make_net () in
  Alcotest.check_raises "out of range" (Invalid_argument "Network.recover: vertex out of range")
    (fun () -> Network.recover net 99);
  Network.recover net 2 (* never crashed: a no-op *);
  Network.crash net 2;
  Network.recover net 2;
  Network.recover net 2;
  check_bool "up" false (Network.is_crashed net 2)

let test_restore_link () =
  let sim, net = make_net () in
  let received = ref 0 in
  Network.set_receiver net (fun ~dst:_ ~src:_ _ -> incr received);
  Network.fail_link net 0 1;
  Network.send net ~src:0 ~dst:1 0;
  Network.restore_link net 0 1;
  check_bool "link back up" false (Network.link_failed net 0 1);
  Network.send net ~src:0 ~dst:1 0;
  Sim.run sim;
  (* the drop before the restore stays lost *)
  check_int "one delivery" 1 !received;
  check_int "one link drop" 1 (Network.stats net).Network.dropped_link;
  Alcotest.check_raises "restore needs an edge"
    (Invalid_argument "Network.restore_link: no such edge") (fun () ->
      Network.restore_link net 0 2)

let test_heal_restores_everything () =
  let _, net = make_net () in
  Network.fail_link net 0 1;
  Network.fail_link net 2 3;
  Network.heal net;
  check_bool "0-1 up" false (Network.link_failed net 0 1);
  check_bool "2-3 up" false (Network.link_failed net 2 3)

let test_set_loss_rate_mid_run () =
  let sim, net = make_net () in
  let received = ref 0 in
  Network.set_receiver net (fun ~dst:_ ~src:_ _ -> incr received);
  check_bool "initial rate" true (Network.loss_rate net = 0.0);
  Network.set_loss_rate net 0.999999;
  for _ = 1 to 50 do
    Network.send net ~src:0 ~dst:1 0
  done;
  Network.set_loss_rate net 0.0;
  for _ = 1 to 10 do
    Network.send net ~src:0 ~dst:1 0
  done;
  Sim.run sim;
  (* at 0.999999 essentially everything drops; at 0 nothing does *)
  check_bool "lossy phase dropped" true ((Network.stats net).Network.dropped_random >= 45);
  check_bool "clean phase delivered" true (!received >= 10);
  Alcotest.check_raises "rate must be < 1"
    (Invalid_argument "Network.set_loss_rate: loss_rate outside [0,1)") (fun () ->
      Network.set_loss_rate net 1.0)

(* Priority bands, randomised over one congested link: deliveries
   within any band keep their send order (each band is FIFO and drops
   happen at admission, so what survives is an increasing subsequence),
   and the per-band counters conserve — sent = delivered + every drop
   reason — while summing to the global stats. *)
let prop_band_fifo_and_conservation =
  qcheck ~count:40 "bands: FIFO within band + per-band conservation"
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let module Prng = Graph_core.Prng in
      let rngv = Prng.create ~seed in
      let bands = 2 + Prng.int rngv 3 in
      let qcap = 1 + Prng.int rngv 4 in
      let loss = if Prng.bool rngv then 0.2 else 0.0 in
      let sim = Sim.create () in
      let g = Graph.of_edges ~n:2 [ (0, 1) ] in
      let net =
        Network.create ~sim ~csr:(Csr.of_graph g)
          ~latency:(Network.constant_latency 0.7)
          ~loss_rate:loss ~link_capacity:1.0 ~queue_cap:qcap ~bands ()
      in
      let delivered = Array.make bands [] in
      (* message = send index over the band in the low two bits *)
      Network.set_receiver net (fun ~dst:_ ~src:_ m ->
          delivered.(m land 3) <- (m lsr 2) :: delivered.(m land 3));
      let nmsg = 30 + Prng.int rngv 40 in
      for i = 0 to nmsg - 1 do
        let b = Prng.int rngv bands in
        Sim.schedule sim ~delay:(float_of_int i *. 0.3) (fun () ->
            Network.set_send_band net b;
            Network.send net ~src:0 ~dst:1 ((i lsl 2) lor b))
      done;
      Sim.run sim;
      let rec increasing = function
        | a :: (b :: _ as tl) -> a < b && increasing tl
        | _ -> true
      in
      let fifo_ok = Array.for_all (fun l -> increasing (List.rev l)) delivered in
      let sum_sent = ref 0 and conserved = ref true in
      for b = 0 to bands - 1 do
        let s = Network.band_stats net ~band:b in
        sum_sent := !sum_sent + s.Network.sent;
        if
          s.Network.sent
          <> s.Network.delivered + s.Network.dropped_queue + s.Network.dropped_random
             + s.Network.dropped_link + s.Network.dropped_crash
        then conserved := false;
        if List.length delivered.(b) <> s.Network.delivered then conserved := false
      done;
      fifo_ok && !conserved && !sum_sent = (Network.stats net).Network.sent)

(* Strict priority: however deep the bulk backlog on the lowest band,
   a band-0 message waits behind at most the one message already in
   service — its delay never exceeds latency + 2 service times. *)
let prop_band_high_priority_bound =
  qcheck ~count:40 "bands: band 0 never waits behind the bulk backlog"
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let module Prng = Graph_core.Prng in
      let rngv = Prng.create ~seed in
      let bands = 2 + Prng.int rngv 3 in
      let cap = 0.5 +. (float_of_int (Prng.int rngv 20) /. 10.0) in
      let latency = 0.5 in
      let sim = Sim.create () in
      let g = Graph.of_edges ~n:2 [ (0, 1) ] in
      let net =
        Network.create ~sim ~csr:(Csr.of_graph g)
          ~latency:(Network.constant_latency latency)
          ~link_capacity:cap ~bands ()
      in
      (* bulk burst rides the default (lowest) band at t = 0 *)
      let bulk = 5 + Prng.int rngv 50 in
      for i = 1 to bulk do
        Network.send net ~src:0 ~dst:1 i
      done;
      let t1 = 0.1 +. (float_of_int (Prng.int rngv 30) /. 10.0) in
      let arrival = ref nan in
      Network.set_receiver net (fun ~dst:_ ~src:_ m -> if m = 99 then arrival := Sim.now sim);
      Sim.schedule sim ~delay:t1 (fun () ->
          let save = Network.send_band net in
          Network.set_send_band net 0;
          Network.send net ~src:0 ~dst:1 99;
          Network.set_send_band net save);
      Sim.run sim;
      !arrival -. t1 <= latency +. (2.0 /. cap) +. 1e-9)

(* The fan-out path against one event per message. One flood runs
   twice: its receiver relays through [send_neighbors_except], which
   takes one pooled event per fan-out when it can, or loops
   [Network.send] over the row in ascending order, one event per
   message. Both runs must log the same deliveries (time, src, dst,
   message, and [Sim.events_processed] as the receiver reads it) and
   end with the same counters. Crashes and recoveries land both from
   scheduled callbacks and from inside a receiver, that is, in the
   middle of a fan-out. Loss, failed links, a latency model and
   tracing switch the fan-out off, some of them mid-run. *)
type fault =
  | Crash of int
  | Recover of int
  | Fail of int * int
  | Restore of int * int
  | Loss of float

type flood_case = {
  graph : Graph.t;
  engine : Sim.engine;
  processing : float;
  fbands : int;
  latency : Network.latency option;
  loss0 : float;
  traced : bool;
  failed0 : (int * int) list;
  timeline : (float * fault) list;  (** scheduled callbacks *)
  in_receiver : (int * fault) list;  (** crashes and recoveries at the i-th delivery *)
}

let gen_flood_case seed =
  let module Prng = Graph_core.Prng in
  let r = Prng.create ~seed in
  let n = 2 + Prng.int r 30 in
  let graph = Generators.random_tree r ~n in
  let extra = Generators.gnp r ~n ~p:(0.05 +. Prng.float r 0.3) in
  List.iter (fun (u, v) -> Graph.add_edge graph u v) (Graph.edges extra);
  let edges = Array.of_list (Graph.edges graph) in
  let edge () = edges.(Prng.int r (Array.length edges)) in
  let node () = Prng.int r n in
  let coin p = Prng.float r 1.0 < p in
  let timeline =
    List.init (Prng.int r 6) (fun _ ->
        (* integer times coincide with flood rounds; the callbacks were
           scheduled first, so they run before that round's arrivals *)
        let at = if coin 0.5 then float_of_int (1 + Prng.int r 8) else Prng.float r 8.0 in
        let ev =
          match Prng.int r 5 with
          | 0 -> Crash (node ())
          | 1 -> Recover (node ())
          | 2 ->
              let u, v = edge () in
              Fail (u, v)
          | 3 ->
              let u, v = edge () in
              Restore (u, v)
          | _ -> Loss (if coin 0.5 then 0.0 else 0.3)
        in
        (at, ev))
  in
  {
    graph;
    engine = (if coin 0.5 then Sim.Calendar else Sim.Heap);
    processing = (if coin 0.5 then 0.0 else 0.4);
    fbands = 1 + Prng.int r 2;
    latency = (if coin 0.2 then Some (Network.uniform_latency ~lo:0.5 ~hi:1.5) else None);
    loss0 = (if coin 0.2 then 0.2 else 0.0);
    traced = coin 0.2;
    failed0 = (if coin 0.2 then [ edge () ] else []);
    timeline;
    in_receiver =
      List.init (Prng.int r 4) (fun _ ->
          (Prng.int r 40, if coin 0.6 then Crash (node ()) else Recover (node ())));
  }

let run_flood_case ~fanout ~seed c =
  let obs = Obs.Registry.create () in
  let sim = Sim.create ~seed ~engine:c.engine ~obs () in
  let csr = Csr.of_graph c.graph in
  let trace = if c.traced then Some (Netsim.Trace.create ()) else None in
  let net =
    Network.create ~sim ~csr ?latency:c.latency ~loss_rate:c.loss0
      ~processing_delay:c.processing ~bands:c.fbands ?trace ~obs ()
  in
  let apply = function
    | Crash v -> Network.crash net v
    | Recover v -> Network.recover net v
    | Fail (u, v) -> Network.fail_link net u v
    | Restore (u, v) -> Network.restore_link net u v
    | Loss p -> Network.set_loss_rate net p
  in
  List.iter (fun (u, v) -> Network.fail_link net u v) c.failed0;
  List.iter (fun (at, f) -> Sim.schedule_at sim ~time:at (fun () -> apply f)) c.timeline;
  let relay ~src ~except msg =
    Network.set_send_band net (src mod c.fbands);
    if fanout then Network.send_neighbors_except net ~src ~except msg
    else
      List.iter
        (fun dst -> if dst <> except then Network.send net ~src ~dst msg)
        (Csr.neighbors csr src)
  in
  let seen = Array.make (Csr.n csr) false in
  let log = ref [] and deliveries = ref 0 in
  Network.set_receiver net (fun ~dst ~src msg ->
      log := (Sim.now sim, src, dst, msg, Sim.events_processed sim) :: !log;
      if not seen.(dst) then begin
        seen.(dst) <- true;
        relay ~src:dst ~except:src (msg + 1)
      end;
      List.iter (fun (i, f) -> if i = !deliveries then apply f) c.in_receiver;
      incr deliveries);
  seen.(0) <- true;
  relay ~src:0 ~except:(-1) 0;
  Sim.run sim;
  let counter name = Obs.Registry.counter_value (Obs.Registry.counter obs name) in
  ( List.rev !log,
    Network.stats net,
    List.init c.fbands (fun band -> Network.band_stats net ~band),
    Sim.events_processed sim,
    (counter "sim.events", counter "net.sent", counter "net.delivered"),
    Option.map Netsim.Trace.events trace )

let prop_fanout_matches_per_message_sends =
  qcheck ~count:300 "fan-out event = one event per message"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let c = gen_flood_case seed in
      run_flood_case ~fanout:true ~seed c = run_flood_case ~fanout:false ~seed c)

(* A unit-latency flood keeps at most one pending event per relaying
   node: each fan-out is one event, so the peak of [Sim.pending] stays
   within n where one event per wire message would not. *)
let test_fanout_pending_peak () =
  let n = 16386 in
  let csr = Csr.of_graph (Lhg_core.Build.kdiamond_exn ~n ~k:4).Lhg_core.Build.graph in
  let sim = Sim.create () in
  let net = Network.create ~sim ~csr () in
  let seen = Array.make n false and covered = ref 1 and peak = ref 0 in
  Network.set_receiver net (fun ~dst ~src _ ->
      peak := max !peak (Sim.pending sim);
      if not seen.(dst) then begin
        seen.(dst) <- true;
        incr covered;
        Network.send_neighbors_except net ~src:dst ~except:src 0
      end);
  seen.(0) <- true;
  Network.send_neighbors_except net ~src:0 ~except:(-1) 0;
  Sim.run sim;
  check_int "covered" n !covered;
  check_bool (Printf.sprintf "peak pending %d <= n = %d" !peak n) true (!peak <= n)

(* -- publishing ----------------------------------------------------------

   The simulator and the network count in their own fields and publish
   into the registry when a run returns or a step ends. These cases
   check that the registry ends up where one record per message would
   have left it, however the run is driven. *)

(* Everything a registry receives from one run, sums to the last bit *)
let registry_numbers obs =
  let module R = Obs.Registry in
  ( List.map (fun c -> (R.counter_name c, R.counter_value c)) (R.counters obs),
    List.map
      (fun h ->
        ( R.histogram_name h,
          R.histogram_count h,
          Int64.bits_of_float (R.histogram_sum h),
          Array.to_list (R.histogram_counts h) ))
      (R.histograms obs),
    (R.events_recorded obs, List.map (R.event_kind_count obs) R.all_span_kinds) )

let counter obs name = Obs.Registry.counter_value (Obs.Registry.counter obs name)

(* Four sources flood 12 chunks each over capacity-1 links of a
   kdiamond n = 66: arrivals wait behind backlogs of up to a few dozen,
   drop-tail a full queue, lose to the loss coin, land on a node that
   crashed at t = 3 or cross a link that failed at t = 4. *)
let capacity_stream ?(policy = Network.Drop_tail) ?(on_delivery = fun _ -> ()) ~obs () =
  let sim = Sim.create ~seed:11 ~obs () in
  let csr = Csr.of_graph (Lhg_core.Build.kdiamond_exn ~n:66 ~k:4).Lhg_core.Build.graph in
  let net =
    Network.create ~sim ~csr ~link_capacity:1.0 ~queue_cap:6 ~queue_policy:policy ~loss_rate:0.05
      ~obs ()
  in
  let n = Csr.n csr and chunks = 12 in
  let seen = Array.make (n * 4 * chunks) false and deliveries = ref 0 in
  let relay ~src ~except msg =
    if not (Network.is_crashed net src) then Network.send_neighbors_except net ~src ~except msg
  in
  Network.set_receiver net (fun ~dst ~src msg ->
      incr deliveries;
      on_delivery !deliveries;
      if not seen.((msg * n) + dst) then begin
        seen.((msg * n) + dst) <- true;
        relay ~src:dst ~except:src msg
      end);
  for c = 0 to (4 * chunks) - 1 do
    let origin = 16 * (c mod 4) in
    Sim.schedule_at sim ~time:(0.25 *. float_of_int c) (fun () ->
        seen.((c * n) + origin) <- true;
        relay ~src:origin ~except:(-1) c)
  done;
  Sim.schedule_at sim ~time:3.0 (fun () -> Network.crash net 5);
  Sim.schedule_at sim ~time:4.0 (fun () -> Network.fail_link net 20 (List.hd (Csr.neighbors csr 20)));
  (sim, net)

let run_whole sim = Sim.run sim

let run_in_slices sim =
  (* the slices Flood.Reliable and a scenario timeline run in *)
  let until = ref 0.0 in
  while Sim.pending sim > 0 do
    until := !until +. 2.5;
    Sim.run ~until:!until sim
  done

let run_by_steps sim = while Sim.step sim do () done

let test_publish_independent_of_driving () =
  List.iter
    (fun policy ->
      let outcome drive =
        let obs = Obs.Registry.create () in
        let sim, net = capacity_stream ~policy ~obs () in
        drive sim;
        let st = Network.stats net in
        check_int "net.sent = stats" st.Network.sent (counter obs "net.sent");
        check_int "net.delivered = stats" st.Network.delivered (counter obs "net.delivered");
        check_int "sim.events = events processed" (Sim.events_processed sim)
          (counter obs "sim.events");
        (Obs.Export.to_json ~recent_events:8 obs, registry_numbers obs, st)
      in
      let whole = outcome run_whole in
      let _, _, st = whole in
      check_bool "queues, drops and crashes all exercised" true
        (st.Network.dropped_random > 0 && st.Network.dropped_crash > 0
        && st.Network.dropped_link > 0
        && (policy = Network.Block || st.Network.dropped_queue > 0));
      check_bool "until slices = one run" true (outcome run_in_slices = whole);
      check_bool "step loop = one run" true (outcome run_by_steps = whole))
    [ Network.Drop_tail; Network.Block ]

(* A unit-latency flood with one crashed node: every fan-out is one
   pooled event, published as unit-latency sends. *)
let fanout_flood ~obs ?(on_delivery = fun _ -> ()) () =
  let sim = Sim.create ~seed:5 ~obs () in
  let csr = Csr.of_graph (Lhg_core.Build.kdiamond_exn ~n:130 ~k:4).Lhg_core.Build.graph in
  let net = Network.create ~sim ~csr ~obs () in
  Network.crash net 9;
  let seen = Array.make (Csr.n csr) false and deliveries = ref 0 in
  Network.set_receiver net (fun ~dst ~src msg ->
      incr deliveries;
      on_delivery !deliveries;
      if not seen.(dst) then begin
        seen.(dst) <- true;
        Network.send_neighbors_except net ~src:dst ~except:src (msg + 1)
      end);
  seen.(0) <- true;
  Network.send_neighbors_except net ~src:0 ~except:(-1) 0;
  (sim, net)

(* The audits' path: each run publishes into a scratch registry that is
   merged into the total and cleared. The total must equal one registry
   both runs published into, and the sum of the two runs' stats. *)
let test_publish_two_networks_add_up () =
  let direct = Obs.Registry.create () in
  let sim, flood_net = fanout_flood ~obs:direct () in
  Sim.run sim;
  let sim, stream_net = capacity_stream ~obs:direct () in
  Sim.run sim;
  let total = Obs.Registry.create () and scratch = Obs.Registry.create () in
  let sim, _ = fanout_flood ~obs:scratch () in
  Sim.run sim;
  Obs.Registry.merge total scratch;
  Obs.Registry.clear scratch;
  let sim, _ = capacity_stream ~obs:scratch () in
  Sim.run sim;
  Obs.Registry.merge total scratch;
  check_bool "scratch, merge, clear = one registry" true
    (registry_numbers total = registry_numbers direct);
  let a = Network.stats flood_net and b = Network.stats stream_net in
  check_int "net.sent adds up" (a.Network.sent + b.Network.sent) (counter total "net.sent");
  check_int "net.delivered adds up"
    (a.Network.delivered + b.Network.delivered)
    (counter total "net.delivered");
  check_int "net.dropped_crash adds up"
    (a.Network.dropped_crash + b.Network.dropped_crash)
    (counter total "net.dropped_crash");
  match Obs.Registry.find_histogram total "net.latency" with
  | None -> Alcotest.fail "net.latency not registered"
  | Some h ->
      (* unit latency: one 1.0 per message that reached the latency step *)
      let reached (s : Network.stats) =
        s.Network.sent - s.Network.dropped_link - s.Network.dropped_random - s.Network.dropped_queue
      in
      check_int "net.latency count" (reached a + reached b) (Obs.Registry.histogram_count h);
      Alcotest.(check (float 0.0))
        "net.latency sum" (float_of_int (reached a + reached b)) (Obs.Registry.histogram_sum h)

(* A receiver that raises ends the run, and the registry keeps what ran
   before: publishing happens on the way out, from [run] and from
   [step], on the fan-out path and on the capacity path. *)
exception Stop

let test_publish_when_receiver_raises () =
  let check_published obs sim net =
    let st = Network.stats net in
    check_int "sim.events" (Sim.events_processed sim) (counter obs "sim.events");
    check_int "net.sent" st.Network.sent (counter obs "net.sent");
    check_int "net.delivered" st.Network.delivered (counter obs "net.delivered");
    check_int "net.dropped_crash" st.Network.dropped_crash (counter obs "net.dropped_crash");
    check_int "net.dropped_random" st.Network.dropped_random (counter obs "net.dropped_random")
  in
  let drives = [ ("run", run_whole); ("step", run_by_steps) ] in
  let raises_at at i = if i = at then raise Stop in
  List.iter
    (fun (name, drive) ->
      List.iter
        (fun (path, sim, net, obs, at) ->
          (match drive sim with
          | () -> Alcotest.failf "%s, %s path: no exception" name path
          | exception Stop -> ());
          check_int
            (Printf.sprintf "%s, %s path: delivered before the raise" name path)
            at (Network.stats net).Network.delivered;
          check_published obs sim net)
        [
          (* the 40th delivery raises in the middle of a fan-out *)
          (let obs = Obs.Registry.create () in
           let sim, net = fanout_flood ~obs ~on_delivery:(raises_at 40) () in
           ("fan-out", sim, net, obs, 40));
          (let obs = Obs.Registry.create () in
           let sim, net = capacity_stream ~obs ~on_delivery:(raises_at 500) () in
           ("capacity", sim, net, obs, 500));
        ])
    drives

let suite =
  [
    Alcotest.test_case "basic delivery" `Quick test_basic_delivery;
    Alcotest.test_case "recover delivers in-flight" `Quick test_recover_delivers_in_flight;
    Alcotest.test_case "recover misses crash window" `Quick test_recover_misses_crash_window;
    Alcotest.test_case "recover validates, idempotent" `Quick test_recover_validates_and_is_idempotent;
    Alcotest.test_case "restore_link" `Quick test_restore_link;
    Alcotest.test_case "heal restores everything" `Quick test_heal_restores_everything;
    Alcotest.test_case "set_loss_rate mid-run" `Quick test_set_loss_rate_mid_run;
    Alcotest.test_case "latency applied" `Quick test_latency_applied;
    Alcotest.test_case "send requires edge" `Quick test_send_requires_edge;
    Alcotest.test_case "crashed source rejected" `Quick test_crashed_source_rejected;
    Alcotest.test_case "crashed destination drops" `Quick test_crashed_destination_drops;
    Alcotest.test_case "crash during flight" `Quick test_crash_during_flight_drops;
    Alcotest.test_case "failed link drops" `Quick test_failed_link_drops;
    Alcotest.test_case "fail_link requires edge" `Quick test_fail_link_requires_edge;
    Alcotest.test_case "loss rate statistical" `Quick test_loss_rate_statistical;
    Alcotest.test_case "alive mask" `Quick test_alive_mask;
    Alcotest.test_case "invalid loss rate" `Quick test_invalid_loss_rate;
    Alcotest.test_case "processing delay serializes" `Quick test_processing_delay_serializes;
    Alcotest.test_case "processing delay default" `Quick test_processing_delay_zero_is_default;
    Alcotest.test_case "processing delay negative" `Quick test_processing_delay_negative_rejected;
    Alcotest.test_case "processing delay idle resets" `Quick test_processing_delay_idle_resets;
    Alcotest.test_case "uniform latency bounds" `Quick test_uniform_latency_bounds;
    Alcotest.test_case "exponential latency floor" `Quick test_exponential_latency_floor;
    prop_band_fifo_and_conservation;
    prop_band_high_priority_bound;
    Alcotest.test_case "send checks message range" `Quick test_send_checks_message_range;
    prop_fanout_matches_per_message_sends;
    Alcotest.test_case "fan-out pending peak <= n" `Quick test_fanout_pending_peak;
    Alcotest.test_case "latency constructors reject NaN" `Quick
      test_latency_constructors_reject_nan;
    Alcotest.test_case "NaN latency rejected at send" `Quick test_nan_latency_rejected_at_send;
    Alcotest.test_case "NaN loss rate rejected" `Quick test_nan_loss_rate_rejected;
    Alcotest.test_case "NaN processing delay rejected" `Quick test_nan_processing_delay_rejected;
    Alcotest.test_case "infinite processing delay rejected" `Quick
      test_infinite_processing_delay_rejected;
    Alcotest.test_case "set_loss_rate NaN rejected" `Quick test_nan_set_loss_rate_rejected;
    Alcotest.test_case "uniform latency infinite bound rejected" `Quick
      test_infinite_uniform_latency_rejected;
    Alcotest.test_case "exponential latency infinite mean rejected" `Quick
      test_infinite_exponential_latency_rejected;
    Alcotest.test_case "infinite latency rejected at send" `Quick
      test_infinite_latency_rejected_at_send;
    Alcotest.test_case "publish: one run = until slices = step loop" `Quick
      test_publish_independent_of_driving;
    Alcotest.test_case "publish: two networks into one registry add up" `Quick
      test_publish_two_networks_add_up;
    Alcotest.test_case "publish: a raising receiver keeps what ran" `Quick
      test_publish_when_receiver_raises;
  ]
