(* The five end-to-end workloads.

   Each workload has two forms. [prepare] is the untraced form: it
   builds the entry point's inputs (the set-up) and returns the single
   call a user makes, which returns the function that renders the
   run's deterministic document. [trace] is the traced form: it makes
   the same calls as the entry point, one layer at a time, each inside
   a span, and returns the same document plus the per-layer counts
   that only a finished run can give. Why each workload exists is in
   README.md. *)

module Spec = Scenario.Spec
module Controller = Overlay.Controller
module Cert = Overlay.Cert
module Driver = Traffic.Driver
module Workload = Traffic.Workload
module Tree_pack = Graph_core.Tree_pack

type outcome = {
  doc : string;  (** the run's deterministic document *)
  epochs_doc : string;
      (** churn only: every epoch's lhg-reconfig/1 object — the epochs of
          [Controller.run_to_json], which [Scenario.run] keeps private *)
  ok : bool;  (** the workload's output invariants hold *)
}

type t = {
  name : string;
  prepare : seed:int -> unit -> unit -> outcome;
  trace : seed:int -> Spans.t -> outcome * float * (string * float) list;
      (** the outcome, the traced time of the calls the untraced entry
          point makes (shadow replays and set-up excluded), and the
          layer counts; span times are read off the recorder *)
}

let ok_or_fail = function Ok x -> x | Error e -> failwith e
let spec ~n ~seed = { Spec.default with Spec.topology = "kdiamond"; n; k = 4; seed; jobs = 1 }
let traffic_doc (s : Spec.t) r =
  Scenario.report_traffic ~topology:s.Spec.topology ~n:s.Spec.n ~k:s.Spec.k ~seed:s.Spec.seed r

let driver_counts (r : Driver.result) =
  [
    ("traffic.wire_messages", float_of_int r.Driver.wire_messages);
    ("traffic.deliveries", float_of_int r.Driver.deliveries);
    ("traffic.max_queue_backlog", float_of_int r.Driver.max_queue_backlog);
    ("traffic.tree_fallbacks", float_of_int r.Driver.tree_fallbacks);
    ("traffic.restripe_patched", float_of_int r.Driver.restripe_patched);
    ("traffic.restripe_repacked", float_of_int r.Driver.restripe_repacked);
    ("traffic.control_messages", float_of_int r.Driver.control_messages);
    ("traffic.p50_delay_vt", r.Driver.p50_delay);
    ("traffic.p95_delay_vt", r.Driver.p95_delay);
    ("traffic.p99_delay_vt", r.Driver.p99_delay);
    ( "traffic.wire_msgs_per_delivery",
      float_of_int r.Driver.wire_messages /. float_of_int (max 1 r.Driver.deliveries) );
    ("traffic.undelivered_frac", 1.0 -. r.Driver.delivery_fraction);
  ]

(* {2 churn_trees_n1026} *)

let churn_scenario ~seed =
  {
    Scenario.spec = spec ~n:1026 ~seed;
    traffic =
      {
        Scenario.default_traffic with
        Scenario.workload =
          Workload.default
          |> Workload.with_dissemination Workload.Trees
          |> Workload.with_source_count 4 |> Workload.with_chunks_per_source 96
          |> Workload.with_rate 0.7;
        capacity = Some 1.0;
        queue_policy = Some Netsim.Network.Block;
        bands = 2;
        min_delivery = 0.99;
      };
    controller = { Scenario.default_controller with Scenario.steps = 8; batch = 8 };
    epoch_interval = 12.0;
  }

let churn_outcome sc (o : Scenario.outcome) =
  {
    doc = Scenario.report sc o;
    epochs_doc = String.concat "" (List.map Controller.epoch_to_json o.Scenario.epochs);
    ok = o.Scenario.all_verified && o.Scenario.slo_ok;
  }

let churn_prepare ~seed =
  let sc = churn_scenario ~seed in
  fun () ->
    let o = ok_or_fail (Scenario.run sc) in
    fun () -> churn_outcome sc o

let batches size l =
  let rec go acc cur i = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: tl when i = size -> go (List.rev cur :: acc) [ x ] 1 tl
    | x :: tl -> go acc (x :: cur) (i + 1) tl
  in
  go [] [] 0 l

(* Scenario.run call by call. After each commit a shadow certificate
   cache replays the controller's verification path from outside, so
   the epoch's time can be split between Cert.check, Verify.quick,
   Cert.rebuild and the rebuild candidate. *)
let churn_trace ~seed rec_ =
  let span name f = Spans.span rec_ name f in
  let sc = churn_scenario ~seed in
  let s = sc.Scenario.spec and cc = sc.Scenario.controller and tc = sc.Scenario.traffic in
  let k = s.Spec.k and family = Overlay.Membership.Kdiamond in
  let requests =
    Controller.random_trace ~seed ~family ~k ~n0:s.Spec.n ~steps:cc.Scenario.steps ()
  in
  let ctrl =
    span "overlay.controller_create" (fun () ->
        Controller.create ~verify:Controller.Cached ~family ~k ~n:s.Spec.n ())
    |> Result.map_error Overlay.Error.to_string |> ok_or_fail
  in
  let shadow = Cert.create ~k in
  span "shadow.cert_arm" (fun () ->
      ignore (Cert.rebuild shadow ~graph:(Controller.base_graph ctrl)));
  let diameter_miss = ref 0 in
  let epochs =
    List.map
      (fun batch ->
        let before = Controller.graph ctrl in
        List.iter (Controller.feed ctrl) batch;
        let e =
          span "overlay.commit_epoch" (fun () -> Controller.commit_epoch ctrl)
          |> Result.map_error Overlay.Error.to_string |> ok_or_fail
        in
        let g = Controller.graph ctrl in
        span "shadow.epoch" (fun () ->
            let full () =
              if span "lhg.verify_quick" (fun () -> Lhg_core.Verify.quick g ~k) then
                span "overlay.cert_rebuild" (fun () -> ignore (Cert.rebuild shadow ~graph:g))
            in
            (if Cert.armed shadow then begin
               let r =
                 span "overlay.cert_check" (fun () ->
                     Cert.check shadow ~graph:g ~removed:e.Controller.diff.Overlay.Diff.removed)
               in
               if r.Cert.connectivity_ok && not r.Cert.diameter_ok then incr diameter_miss;
               if not (Cert.ok r) then full ()
             end
             else full ());
            span "overlay.rebuild_candidate" (fun () ->
                match Overlay.Membership.create ~family ~k ~n:e.Controller.n_after with
                | Ok m ->
                    ignore
                      (Overlay.Diff.edges ~old_graph:before
                         ~new_graph:(Overlay.Membership.graph m))
                | Error _ -> ()));
        e)
      (batches cc.Scenario.batch requests)
  in
  let union_g, reconfig =
    span "scenario.lower" (fun () ->
        Scenario.lower ~epoch_interval:sc.Scenario.epoch_interval
          ~tree_count:(Some (max 1 (k / 2)))
          ~base:(Controller.base_graph ctrl) epochs)
  in
  let csr = span "graph_core.csr_freeze" (fun () -> Graph_core.Csr.of_graph union_g) in
  let wl = tc.Scenario.workload in
  let workload = Workload.with_sources (Workload.resolve_sources wl ~n:s.Spec.n) wl in
  let env =
    Spec.to_env s
    |> Flood.Env.with_link_capacity (Option.get tc.Scenario.capacity)
    |> Flood.Env.with_queue_policy (Option.get tc.Scenario.queue_policy)
    |> Flood.Env.with_bands tc.Scenario.bands
  in
  let result =
    span "traffic.driver" (fun () -> Driver.run_csr_env ~env ~reconfig ~csr ~workload ())
  in
  let outcome =
    {
      Scenario.epochs;
      all_verified = List.for_all Controller.epoch_ok epochs;
      union_n = reconfig.Traffic.Reconfig.union_n;
      reconfig;
      result;
      slo_ok =
        result.Driver.delivery_fraction +. 1e-9 >= tc.Scenario.min_delivery
        && result.Driver.p95_delay <= tc.Scenario.max_p95;
    }
  in
  let count f = float_of_int (List.length (List.filter f epochs)) in
  let sum f = float_of_int (List.fold_left (fun a e -> a + f e) 0 epochs) in
  let verification (e : Controller.epoch) = e.Controller.verification in
  let commit = Spans.total rec_ "overlay.commit_epoch" in
  let replay =
    List.fold_left
      (fun a n -> a +. Spans.total rec_ n)
      0.0
      [ "overlay.cert_check"; "lhg.verify_quick"; "overlay.cert_rebuild"; "overlay.rebuild_candidate" ]
  in
  let entry =
    List.fold_left
      (fun a n -> a +. Spans.total rec_ n)
      0.0
      [
        "overlay.controller_create";
        "overlay.commit_epoch";
        "scenario.lower";
        "graph_core.csr_freeze";
        "traffic.driver";
      ]
  in
  ( churn_outcome sc outcome,
    entry,
    [
      ("overlay.epochs", float_of_int (List.length epochs));
      ("overlay.fallback_epochs", count (fun e -> (verification e).Controller.mode = `Fallback));
      ("overlay.cert_diameter_miss_epochs", float_of_int !diameter_miss);
      ("overlay.attributed_frac", if commit > 0.0 then replay /. commit else 0.0);
      ("overlay.certs_reused", sum (fun e -> (verification e).Controller.reused));
      ("overlay.certs_revalidated", sum (fun e -> (verification e).Controller.revalidated));
      ("overlay.certs_recomputed", sum (fun e -> (verification e).Controller.recomputed));
      ("overlay.repair_cost_edges", sum (fun e -> Option.value e.Controller.cost_repair ~default:0));
      ( "overlay.rebuild_cost_edges",
        sum (fun e -> Option.value e.Controller.cost_rebuild ~default:0) );
    ]
    @ driver_counts result )

(* {2 trees_pack_n4098} *)

let trees_spec ~seed = spec ~n:4098 ~seed

let trees_workload =
  Workload.default
  |> Workload.with_dissemination Workload.Trees
  |> Workload.with_source_count 1 |> Workload.with_chunks_per_source 64
  |> Workload.with_rate 0.05

let covered_outcome s (r : Driver.result) =
  { doc = traffic_doc s r; epochs_doc = ""; ok = r.Driver.all_covered }

let csr_prepare ?big s run =
  let csr = ok_or_fail (Spec.csr ?big s) in
  fun () ->
    let r = run csr in
    fun () -> covered_outcome s r

let trees_prepare ~seed =
  let s = trees_spec ~seed in
  csr_prepare s (fun csr ->
      Driver.run_csr_env ~env:(Spec.to_env s) ~csr ~workload:trees_workload ())

let build_csr ?big rec_ s = Spans.span rec_ "topo.build_csr" (fun () -> ok_or_fail (Spec.csr ?big s))

let trees_trace ~seed rec_ =
  let s = trees_spec ~seed in
  let csr = build_csr rec_ s in
  let r =
    Spans.span rec_ "traffic.driver" (fun () ->
        Driver.run_csr_env ~env:(Spec.to_env s) ~csr ~workload:trees_workload ())
  in
  (* the driver's own pack cache is private, so pack the same sources
     again from outside to time the packing alone *)
  let packs =
    Spans.span rec_ "graph_core.tree_pack" (fun () ->
        Tree_pack.pack_all csr ~sources:r.Driver.sources)
  in
  let max_depth =
    Array.fold_left
      (fun a p ->
        let d = ref a in
        for tree = 0 to Tree_pack.count p - 1 do
          d := max !d (Tree_pack.max_depth p ~tree)
        done;
        !d)
      0 packs
  in
  ( covered_outcome s r,
    Spans.total rec_ "traffic.driver",
    [
      ( "graph_core.tree_pack_count",
        float_of_int (Array.fold_left (fun a p -> min a (Tree_pack.count p)) max_int packs) );
      ("graph_core.tree_pack_max_depth", float_of_int max_depth);
    ]
    @ driver_counts r )

(* {2 flood_congested_obs_n1026} *)

let congested_spec ~seed = spec ~n:1026 ~seed

let congested_env s obs =
  Spec.to_env ~obs s
  |> Flood.Env.with_link_capacity 1.0
  |> Flood.Env.with_queue_cap 8
  |> Flood.Env.with_queue_policy Netsim.Network.Block

let congested_workload =
  Workload.default |> Workload.with_source_count 4 |> Workload.with_chunks_per_source 256
  |> Workload.with_rate 0.7

let congested_prepare ~seed =
  let s = congested_spec ~seed in
  csr_prepare s (fun csr ->
      Driver.run_csr_env
        ~env:(congested_env s (Obs.Registry.create ()))
        ~csr ~workload:congested_workload ())

let congested_trace ~seed rec_ =
  let s = congested_spec ~seed in
  let csr = build_csr rec_ s in
  let obs = Obs.Registry.create () in
  let run name obs =
    Spans.span rec_ name (fun () ->
        Driver.run_csr_env ~env:(congested_env s obs) ~csr ~workload:congested_workload ())
  in
  let r = run "traffic.driver" obs in
  let off = run "traffic.driver_obs_off" Obs.Registry.nil in
  if traffic_doc s off <> traffic_doc s r then failwith "obs-off run changed the document";
  let link_queue_p95 =
    match Obs.Registry.find_histogram obs "net.link_queue" with
    | Some h -> Obs.Registry.percentile h 0.95
    | None -> 0.0
  in
  ( covered_outcome s r,
    Spans.total rec_ "traffic.driver",
    [
      ( "obs.on_off_ratio",
        Spans.total rec_ "traffic.driver" /. Spans.total rec_ "traffic.driver_obs_off" );
      ( "netsim.events",
        float_of_int (Obs.Registry.counter_value (Obs.Registry.counter obs "sim.events")) );
      ("netsim.link_queue_p95", link_queue_p95);
    ]
    @ driver_counts r )

(* {2 flood_million_n1048578} *)

let million_spec ~seed = spec ~n:((1 lsl 20) + 2) ~seed

let million_workload =
  Workload.default |> Workload.with_source_count 4 |> Workload.with_chunks_per_source 1

let million_prepare ~seed =
  let s = million_spec ~seed in
  csr_prepare ~big:true s (fun csr ->
      Driver.run_csr_env ~env:(Spec.to_env s) ~csr ~workload:million_workload ())

let million_trace ~seed rec_ =
  let s = million_spec ~seed in
  let csr = build_csr ~big:true rec_ s in
  let r =
    Spans.span rec_ "traffic.driver" (fun () ->
        Driver.run_csr_env ~env:(Spec.to_env s) ~csr ~workload:million_workload ())
  in
  (covered_outcome s r, Spans.total rec_ "traffic.driver", driver_counts r)

(* {2 assemble_n1026} *)

let assemble_spec ~seed = spec ~n:1026 ~seed

let assemble_outcome (r : Assemble.Run.result) =
  {
    doc = Assemble.Run.to_json r;
    epochs_doc = "";
    ok = r.Assemble.Run.converged && r.Assemble.Run.verified && r.Assemble.Run.matches_target;
  }

let assemble_call s construction () =
  Assemble.Run.run ~env:(Spec.to_env s) ~construction ~n:s.Spec.n ~k:s.Spec.k ()

let assemble_prepare ~seed =
  let s = assemble_spec ~seed in
  let construction = ok_or_fail (Spec.construction s) in
  fun () ->
    let r = assemble_call s construction () in
    fun () -> assemble_outcome r

let assemble_trace ~seed rec_ =
  let s = assemble_spec ~seed in
  let construction = ok_or_fail (Spec.construction s) in
  let r = Spans.span rec_ "assemble.run" (assemble_call s construction) in
  (* the run verifies its realized overlay once, uncached; repeat that
     call from outside to split protocol time from verification time *)
  (match r.Assemble.Run.realized with
  | Some g ->
      ignore (Spans.span rec_ "lhg.verify_quick" (fun () -> Lhg_core.Verify.quick g ~k:s.Spec.k))
  | None -> ());
  ( assemble_outcome r,
    Spans.total rec_ "assemble.run",
    [
      ("assemble.rounds", float_of_int r.Assemble.Run.rounds);
      ("assemble.messages", float_of_int r.Assemble.Run.messages);
      ("assemble.unfreezes", float_of_int r.Assemble.Run.unfreezes);
      ("assemble.views_interned", float_of_int r.Assemble.Run.views_interned);
      ("assemble.gossip_rounds", float_of_int r.Assemble.Run.gossip_rounds);
    ] )

let all =
  [
    { name = "churn_trees_n1026"; prepare = churn_prepare; trace = churn_trace };
    { name = "trees_pack_n4098"; prepare = trees_prepare; trace = trees_trace };
    { name = "flood_congested_obs_n1026"; prepare = congested_prepare; trace = congested_trace };
    { name = "flood_million_n1048578"; prepare = million_prepare; trace = million_trace };
    { name = "assemble_n1026"; prepare = assemble_prepare; trace = assemble_trace };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
