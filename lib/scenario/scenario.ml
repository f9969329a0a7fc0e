(* One churn-under-load experiment, described before it runs.

   A scenario is the composition the CLI subcommands each expose a
   third of: the Spec names the topology and runtime, the traffic
   sub-record the stream, the controller sub-record the churn. [run]
   welds them onto one simulated clock — the controller trace is
   pre-played to epochs (engine-independent by construction), the union
   of every epoch's edge set is frozen into a single CSR snapshot, the
   epochs are lowered to a Traffic.Reconfig timeline, and the driver
   streams through the reconfigurations. Everything downstream of the
   pre-play is the deterministic driver, so the lhg-scenario/1 document
   is byte-identical across engines and pool sizes. *)

module Spec = Spec
module Controller = Overlay.Controller
module Workload = Traffic.Workload
module Driver = Traffic.Driver
module Reconfig = Traffic.Reconfig
module Graph = Graph_core.Graph
module Csr = Graph_core.Csr

(* The traffic third: what the stream looks like and what it must
   achieve. One record per CLI flag group, shared between the
   standalone [traffic] subcommand and [scenario]. *)
type traffic = {
  workload : Workload.t;
  capacity : float option;  (** per-link service rate; [None] = infinite *)
  queue_cap : int option;
  queue_policy : Netsim.Network.queue_policy option;
  bands : int;  (** link priority bands; > 1 gives epoch commits a fast lane *)
  plan_file : string option;  (** chaos plan scheduled mid-stream *)
  min_delivery : float;  (** SLO floor on delivery fraction *)
  max_p95 : float;  (** SLO ceiling on p95 delay *)
}

let default_traffic =
  {
    workload = Workload.default;
    capacity = None;
    queue_cap = None;
    queue_policy = None;
    bands = 1;
    plan_file = None;
    min_delivery = 1.0;
    max_p95 = infinity;
  }

(* The controller third: the churn the overlay reconfigures under. *)
type controller = {
  steps : int;  (** length of the generated random trace *)
  trace_file : string option;  (** explicit request trace; wins over [steps] *)
  batch : int;  (** requests batched into one epoch *)
  join_probability : float option;
  chaos_adversary : string option;  (** per-epoch chaos audit generator *)
  chaos_plans_per_level : int;
  chaos_max_faults : int option;
  full_verify : bool;
}

let default_controller =
  {
    steps = 40;
    trace_file = None;
    batch = 8;
    join_probability = None;
    chaos_adversary = None;
    chaos_plans_per_level = 2;
    chaos_max_faults = None;
    full_verify = false;
  }

(* The chaos-audit flag group ([lhg_tool chaos]); not part of a
   scenario run (a scenario's chaos is a mid-stream plan on the
   traffic record) but decoded once here so the CLI has a single
   source of truth for the group. *)
type chaos_audit = {
  adversary : string;
  audit_plan_file : string option;
  source : int;  (** -1 = first vertex outside the adversary's targets *)
  max_faults : int option;  (** [None] = the connectivity degree k *)
  plans_per_level : int;
}

let default_chaos_audit =
  {
    adversary = "min-cut";
    audit_plan_file = None;
    source = -1;
    max_faults = None;
    plans_per_level = 3;
  }

type t = {
  spec : Spec.t;
  traffic : traffic;
  controller : controller;
  epoch_interval : float;  (** simulated time between epoch commits *)
}

let default =
  {
    spec = Spec.default;
    traffic = default_traffic;
    controller = default_controller;
    epoch_interval = 50.0;
  }

let family_of_topology = function
  | "ktree" -> Some Overlay.Membership.Ktree
  | "kdiamond" -> Some Overlay.Membership.Kdiamond
  | "jd" -> Some Overlay.Membership.Jd
  | "harary" -> Some Overlay.Membership.Harary_classic
  | _ -> None

let validate_traffic tc ~n =
  let ( let* ) = Result.bind in
  let* () =
    if tc.bands >= 1 && tc.bands <= 4 then Ok () else Error "--bands must be between 1 and 4"
  in
  let* () =
    match tc.capacity with
    | Some c when not (c > 0.0 && Float.is_finite c) ->
        Error "--capacity must be a positive finite rate"
    | _ -> Ok ()
  in
  let* () =
    match tc.queue_cap with Some q when q < 1 -> Error "--queue-cap must be >= 1" | _ -> Ok ()
  in
  Workload.validate tc.workload ~n

let validate_chaos_budget ~plans_per_level ~max_faults =
  if plans_per_level < 1 then Error "--plans-per-level must be >= 1"
  else
    match max_faults with Some f when f < 0 -> Error "--max-faults must be >= 0" | _ -> Ok ()

let validate_chaos_audit a =
  validate_chaos_budget ~plans_per_level:a.plans_per_level ~max_faults:a.max_faults

let validate_controller cc =
  let ( let* ) = Result.bind in
  let* () = if cc.batch >= 1 then Ok () else Error "--batch must be >= 1" in
  let* () = if cc.steps >= 0 then Ok () else Error "--steps must be >= 0" in
  let* () =
    match cc.join_probability with
    | Some p when not (p >= 0.0 && p <= 1.0) -> Error "--join-probability must be between 0 and 1"
    | _ -> Ok ()
  in
  validate_chaos_budget ~plans_per_level:cc.chaos_plans_per_level ~max_faults:cc.chaos_max_faults

let validate t =
  let ( let* ) = Result.bind in
  let* _ = Spec.validate t.spec in
  let* () =
    match family_of_topology t.spec.Spec.topology with
    | Some _ -> Ok ()
    | None -> Error "scenario supports kinds ktree, kdiamond, jd, harary"
  in
  let* () =
    if t.epoch_interval > 0.0 && Float.is_finite t.epoch_interval then Ok ()
    else Error "--epoch-interval must be a positive finite time"
  in
  let* () = validate_controller t.controller in
  validate_traffic t.traffic ~n:t.spec.Spec.n

(* Lower committed controller epochs onto a traffic timeline: the union
   graph is every edge any epoch ever had (the one frozen CSR the
   stream runs on), [member0]/[absent0] describe t = 0, and each epoch
   becomes crash/recover + fail/restore flips at [interval * (index+1)].
   Membership is always a prefix 0..n-1 (Membership.leave retires the
   highest id), so a size change is a contiguous join/leave range. *)
let lower ~epoch_interval ~tree_count ~base epochs =
  let n0 = Graph.n base in
  let union_n =
    List.fold_left (fun a (e : Controller.epoch) -> max a e.Controller.n_after) n0 epochs
  in
  let union_g = Graph.create ~n:union_n in
  Graph.iter_edges base (fun u v -> Graph.add_edge union_g u v);
  let absent0 = ref [] in
  List.iter
    (fun (e : Controller.epoch) ->
      List.iter
        (fun (u, v) ->
          if not (Graph.has_edge union_g u v) then begin
            Graph.add_edge union_g u v;
            absent0 := (u, v) :: !absent0
          end)
        e.Controller.diff.Overlay.Diff.added)
    epochs;
  let repochs =
    List.map
      (fun (e : Controller.epoch) ->
        let joins =
          if e.Controller.n_after > e.Controller.n_before then
            List.init (e.Controller.n_after - e.Controller.n_before) (fun i ->
                e.Controller.n_before + i)
          else []
        in
        let leaves =
          if e.Controller.n_after < e.Controller.n_before then
            List.init (e.Controller.n_before - e.Controller.n_after) (fun i ->
                e.Controller.n_after + i)
          else []
        in
        {
          Reconfig.at = epoch_interval *. float_of_int (e.Controller.index + 1);
          index = e.Controller.index;
          joins;
          leaves;
          link_up = e.Controller.diff.Overlay.Diff.added;
          link_down = e.Controller.diff.Overlay.Diff.removed;
          repack = e.Controller.strategy = Controller.Rebuild;
        })
      epochs
  in
  ( union_g,
    {
      Reconfig.union_n;
      member0 = Array.init union_n (fun v -> v < n0);
      absent0 = List.rev !absent0;
      epochs = repochs;
      tree_count;
    } )

type outcome = {
  epochs : Controller.epoch list;
  all_verified : bool;  (** every epoch verified (and audited, if chaos ran) *)
  union_n : int;
  reconfig : Reconfig.t;  (** the lowered timeline the driver replayed *)
  result : Driver.result;
  slo_ok : bool;
}

let slo_ok (tc : traffic) (r : Driver.result) =
  r.Driver.delivery_fraction +. 1e-9 >= tc.min_delivery && r.Driver.p95_delay <= tc.max_p95

let load_trace (cc : controller) ~(spec : Spec.t) ~family =
  match cc.trace_file with
  | Some path -> (
      match In_channel.with_open_text path In_channel.input_all with
      | text -> Result.map_error Overlay.Error.to_string (Controller.parse_trace text)
      | exception Sys_error msg -> Error msg)
  | None ->
      Ok
        (Controller.random_trace ~seed:spec.Spec.seed ?join_probability:cc.join_probability
           ~family ~k:spec.Spec.k ~n0:spec.Spec.n ~steps:cc.steps ())

let controller_chaos (cc : controller) ~seed =
  match cc.chaos_adversary with
  | None -> Ok None
  | Some name ->
      Result.map
        (fun adv ->
          Some
            (Controller.chaos ~plans_per_level:cc.chaos_plans_per_level
               ?max_faults:cc.chaos_max_faults ~seed adv))
        (Chaos.Gen.of_string name)

let run ?obs ?pool t =
  let ( let* ) = Result.bind in
  let* () = validate t in
  let spec = t.spec in
  let family = Option.get (family_of_topology spec.Spec.topology) in
  let* chaos = controller_chaos t.controller ~seed:spec.Spec.seed in
  let* trace = load_trace t.controller ~spec ~family in
  let* plan =
    match t.traffic.plan_file with
    | None -> Ok None
    | Some path -> Result.map Option.some (Chaos.Plan.of_file path)
  in
  let verify = if t.controller.full_verify then Controller.Full else Controller.Cached in
  let* ctrl =
    Result.map_error Overlay.Error.to_string
      (Controller.create ?pool ~verify ?chaos ~family ~k:spec.Spec.k ~n:spec.Spec.n ())
  in
  let* epochs =
    Result.map_error Overlay.Error.to_string
      (Controller.run ~batch:t.controller.batch ctrl trace)
  in
  (* the paper's stripe width comes from the base overlay's k, not the
     union snapshot's inflated degrees *)
  let tree_count = Some (max 1 (spec.Spec.k / 2)) in
  let union_g, reconfig =
    lower ~epoch_interval:t.epoch_interval ~tree_count ~base:(Controller.base_graph ctrl)
      epochs
  in
  let csr = Csr.of_graph union_g in
  (* pin the evenly-spread origins inside the t = 0 membership — spread
     over the union range they could land on a vertex that has not
     joined yet *)
  let workload =
    Workload.with_sources
      (Workload.resolve_sources t.traffic.workload ~n:spec.Spec.n)
      t.traffic.workload
  in
  let env =
    Spec.to_env ?obs ?pool spec
    |> (match t.traffic.capacity with
       | Some r -> Flood.Env.with_link_capacity r
       | None -> Fun.id)
    |> (match t.traffic.queue_cap with
       | Some q -> Flood.Env.with_queue_cap q
       | None -> Fun.id)
    |> (match t.traffic.queue_policy with
       | Some p -> Flood.Env.with_queue_policy p
       | None -> Fun.id)
    |> if t.traffic.bands > 1 then Flood.Env.with_bands t.traffic.bands else Fun.id
  in
  match Driver.run_csr_env ~env ?plan ~reconfig ~csr ~workload () with
  | exception Invalid_argument msg -> Error msg
  | result ->
      Ok
        {
          epochs;
          all_verified = List.for_all Controller.epoch_ok epochs;
          union_n = Reconfig.(reconfig.union_n);
          reconfig;
          result;
          slo_ok = slo_ok t.traffic result;
        }

(* lhg-scenario/1: header, controller summary, the full traffic body
   (Driver.emit), the SLO verdict. No wall-clock fields anywhere, so
   equal scenarios produce byte-identical documents. *)
let schema = "lhg-scenario/1"

let report t outcome =
  let module S = Obs.Stream in
  let s = S.create ~schema () in
  S.str s "topology" t.spec.Spec.topology;
  S.int s "n" t.spec.Spec.n;
  S.int s "k" t.spec.Spec.k;
  S.int s "seed" t.spec.Spec.seed;
  S.int s "union_n" outcome.union_n;
  S.float s "epoch_interval" t.epoch_interval;
  S.obj s "controller" (fun s ->
      S.int s "epochs" (List.length outcome.epochs);
      S.int s "applied"
        (List.fold_left
           (fun a (e : Controller.epoch) -> a + e.Controller.applied)
           0 outcome.epochs);
      S.int s "repairs"
        (List.length
           (List.filter
              (fun (e : Controller.epoch) -> e.Controller.strategy = Controller.Repair)
              outcome.epochs));
      S.int s "rebuilds"
        (List.length
           (List.filter
              (fun (e : Controller.epoch) -> e.Controller.strategy = Controller.Rebuild)
              outcome.epochs));
      S.int s "final_n"
        (match List.rev outcome.epochs with
        | e :: _ -> e.Controller.n_after
        | [] -> t.spec.Spec.n);
      S.bool s "all_verified" outcome.all_verified);
  Driver.emit s outcome.result;
  S.obj s "slo" (fun s ->
      S.float s "min_delivery" t.traffic.min_delivery;
      S.float s "max_p95" t.traffic.max_p95;
      S.bool s "ok" outcome.slo_ok);
  S.contents s

(* the standalone lhg-traffic/1 document: the header the old
   Driver.to_json hard-coded, then the shared body *)
let report_traffic ~topology ~n ~k ~seed r =
  let module S = Obs.Stream in
  let s = S.create ~schema:Driver.schema () in
  S.str s "topology" topology;
  S.int s "n" n;
  S.int s "k" k;
  S.int s "seed" seed;
  Driver.emit s r;
  S.contents s
