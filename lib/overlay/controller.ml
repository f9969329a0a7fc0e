module Graph = Graph_core.Graph
module Prng = Graph_core.Prng
module Verify = Lhg_core.Verify
module Reg = Obs.Registry

type request = Join | Leave | Resize of int

let request_to_string = function
  | Join -> "join"
  | Leave -> "leave"
  | Resize n -> Printf.sprintf "resize %d" n

type chaos = {
  adversary : Chaos.Gen.adversary;
  plans_per_level : int;
  max_faults : int option;
  chaos_seed : int;
}

let chaos ?(plans_per_level = 2) ?max_faults ?(seed = 1) adversary =
  { adversary; plans_per_level; max_faults; chaos_seed = seed }

type verify_mode = Cached | Full

type strategy = Repair | Rebuild

let strategy_name = function Repair -> "repair" | Rebuild -> "rebuild"

type verification = {
  mode : [ `Fallback | `Full ];
  verified : bool;
  reused : int;
  revalidated : int;
  recomputed : int;
}

type rejection = { at : int; request : request; error : Error.t }

type epoch = {
  index : int;
  n_before : int;
  n_after : int;
  applied : int;
  rejections : rejection list;
  strategy : strategy;
  cost_repair : int option;
  cost_rebuild : int option;
  diff : Diff.t;
  verification : verification;
  audit : Chaos.Audit.t option;
}

type t = {
  family : Membership.family;
  k : int;
  n0 : int;
  obs : Reg.t;
  pool : Par.Pool.t option;
  chaos_cfg : chaos option;
  engine : Incremental.t option;
  mutable synced : bool;  (** engine graph = authoritative graph *)
  mutable graph : Graph.t;
  base : Graph.t;  (** epoch-0 graph, frozen, for diff replay *)
  mutable n : int;
  mutable epochs : int;
  mutable rewired : int;  (** cumulative diff cost, for the gauge *)
  mutable queue : request list;  (** newest first *)
  (* metric handles, nil-safe *)
  m_epochs : Reg.counter;
  m_applied : Reg.counter;
  m_rejected : Reg.counter;
  h_cost : Reg.histogram;
  h_ms : Reg.histogram;
}

let floor_of ~family ~k =
  match family with Membership.Harary_classic -> k + 1 | _ -> 2 * k

let epoch_verified e = e.verification.verified

let epoch_ok e =
  epoch_verified e
  && match e.audit with None -> true | Some a -> a.Chaos.Audit.boundary_ok

let create ?(obs = Reg.nil) ?pool ?verify:_ ?chaos ~family ~k ~n () =
  let floor = floor_of ~family ~k in
  if n < floor then
    Error
      (Error.No_topology
         {
           family = Membership.family_name family;
           n;
           k;
           reason = Printf.sprintf "controller needs n >= %d" floor;
         })
  else
    let engine =
      (* the in-place repair engine speaks the kdiamond construction;
         everything else reconfigures by canonical rebuild only *)
      match family with
      | Membership.Kdiamond when k >= 3 ->
          let e = Incremental.start ~k () in
          ignore (Incremental.joins e ~count:(n - (2 * k)));
          Some e
      | _ -> None
    in
    let initial =
      match engine with
      | Some e -> Ok (Graph.copy (Incremental.graph e))
      | None -> (
          match Membership.create ~family ~k ~n with
          | Ok m -> Ok (Graph.copy (Membership.graph m))
          | Error e -> Error e)
    in
    match initial with
    | Error e -> Error e
    | Ok graph ->
        Ok
          {
            family;
            k;
            n0 = n;
            obs;
            pool;
            chaos_cfg = chaos;
            engine;
            synced = engine <> None;
            graph;
            base = Graph.copy graph;
            n;
            epochs = 0;
            rewired = 0;
            queue = [];
            m_epochs = Reg.counter obs "ctrl.epochs";
            m_applied = Reg.counter obs "ctrl.applied";
            m_rejected = Reg.counter obs "ctrl.rejected";
            h_cost = Reg.histogram obs "ctrl.epoch_cost" ~bounds:Reg.hop_bounds;
            h_ms = Reg.histogram obs "ctrl.epoch_ms" ~bounds:Reg.time_bounds;
          }

let graph t = t.graph
let base_graph t = t.base
let n t = t.n
let k t = t.k
let family t = t.family
let epoch_count t = t.epochs
let feed t r = t.queue <- r :: t.queue
let pending t = List.length t.queue

(* Validation pass: walk the batch against a simulated size, splitting
   it into the accepted requests (with the size they lead to) and the
   rejected ones. Both strategies then apply exactly the accepted
   list, so they are always comparable. *)
let validate t reqs =
  let floor = floor_of ~family:t.family ~k:t.k in
  let fam = Membership.family_name t.family in
  let sim = ref t.n in
  let accepted = ref [] and rejected = ref [] in
  List.iteri
    (fun i r ->
      let target =
        match r with Join -> Some (!sim + 1) | Leave -> Some (!sim - 1) | Resize m -> Some m
      in
      match target with
      | Some m when m >= floor ->
          sim := m;
          accepted := r :: !accepted
      | Some m ->
          rejected :=
            { at = i; request = r; error = Error.Below_floor { family = fam; target = m; floor } }
            :: !rejected
      | None -> ())
    reqs;
  (List.rev !accepted, List.rev !rejected, !sim)

(* Trial-apply the accepted batch on the repair engine. Every op is
   deterministic and exactly invertible (leave undoes the newest join
   in place, and a re-join after a leave deterministically reproduces
   it), so the returned op log — newest first — rolls the engine back
   exactly when the rebuild candidate wins. *)
let trial_apply engine reqs =
  let ops = ref [] in
  let join () =
    ignore (Incremental.join engine);
    ops := `J :: !ops
  in
  let leave () =
    (match Incremental.leave engine with Ok _ -> () | Error _ -> assert false);
    ops := `L :: !ops
  in
  List.iter
    (fun r ->
      match r with
      | Join -> join ()
      | Leave -> leave ()
      | Resize m ->
          while Incremental.n engine < m do
            join ()
          done;
          while Incremental.n engine > m do
            leave ()
          done)
    reqs;
  !ops

let rollback engine ops =
  List.iter
    (function
      | `J -> ( match Incremental.leave engine with Ok _ -> () | Error _ -> assert false)
      | `L -> ignore (Incremental.join engine))
    ops

let run_audit t ~index =
  match t.chaos_cfg with
  | None -> None
  | Some c ->
      let rng = Prng.create ~seed:(c.chaos_seed + (8191 * index)) in
      let max_faults = Option.value c.max_faults ~default:t.k in
      let csr = Graph_core.Csr.of_graph t.graph in
      let plans =
        Chaos.Gen.sweep ~plans_per_level:c.plans_per_level ~rng ~source:0 ~max_faults
          (Chaos.Gen.aim csr c.adversary)
      in
      let env =
        Flood.Env.default
        |> Flood.Env.with_seed (c.chaos_seed + (127 * index))
        |> Flood.Env.with_pool t.pool
      in
      Some (Chaos.Audit.run ~env ~csr ~k:t.k ~source:0 ~plans)

let commit_epoch t =
  let started = Monotonic_clock.now () in
  let reqs = List.rev t.queue in
  t.queue <- [];
  let index = t.epochs in
  let n_before = t.n in
  if Reg.enabled t.obs then
    Reg.event_at t.obs ~at:(float_of_int index) Reg.Epoch_start ~node:n_before ~info:index;
  let accepted, rejections, n_target = validate t reqs in
  (* candidate A: in-place repair on the incremental engine *)
  let repair =
    match t.engine with
    | Some engine when t.synced ->
        let ops = trial_apply engine accepted in
        let d = Diff.edges ~old_graph:t.graph ~new_graph:(Incremental.graph engine) in
        Some (engine, ops, d)
    | _ -> None
  in
  (* candidate B: canonical rebuild at the target size *)
  let rebuild =
    match Membership.create ~family:t.family ~k:t.k ~n:n_target with
    | Ok m -> Ok (Membership.graph m)
    | Error e -> Error e
  in
  let rebuild_diff =
    match rebuild with
    | Ok g -> Some (g, Diff.edges ~old_graph:t.graph ~new_graph:g)
    | Error _ -> None
  in
  let cost_repair = Option.map (fun (_, _, d) -> Diff.cost d) repair in
  let cost_rebuild = Option.map (fun (_, d) -> Diff.cost d) rebuild_diff in
  let chosen =
    match (repair, rebuild_diff) with
    | Some r, Some b ->
        (* ties go to repair: it keeps every surviving id in place *)
        if Diff.cost (let _, _, d = r in d) <= Diff.cost (snd b) then Ok (`Repair r)
        else Ok (`Rebuild b)
    | Some r, None -> Ok (`Repair r)
    | None, Some b -> Ok (`Rebuild b)
    | None, None -> (
        match rebuild with Error e -> Error e | Ok _ -> assert false)
  in
  match chosen with
  | Error e ->
      (* nothing applicable: put the batch back and report *)
      t.queue <- List.rev reqs;
      Error e
  | Ok pick ->
      let strategy, diff =
        match pick with
        | `Repair (engine, _, d) ->
            t.graph <- Graph.copy (Incremental.graph engine);
            (Repair, d)
        | `Rebuild (g, d) ->
            (match repair with
            | Some (engine, ops, _) ->
                rollback engine ops;
                t.synced <- false
            | None -> ());
            t.graph <- g;
            (Rebuild, d)
      in
      t.n <- Graph.n t.graph;
      t.epochs <- index + 1;
      let verification =
        {
          mode = `Full;
          verified = Verify.quick ?pool:t.pool t.graph ~k:t.k;
          reused = 0;
          revalidated = 0;
          recomputed = 0;
        }
      in
      let audit = run_audit t ~index in
      let applied = List.length accepted in
      Reg.incr t.m_epochs;
      Reg.add t.m_applied applied;
      Reg.add t.m_rejected (List.length rejections);
      if Reg.enabled t.obs then begin
        Reg.observe t.h_cost (float_of_int (Diff.cost diff));
        Reg.observe t.h_ms (Int64.to_float (Int64.sub (Monotonic_clock.now ()) started) /. 1e6);
        Reg.set (Reg.gauge t.obs "ctrl.n") (float_of_int t.n);
        t.rewired <- t.rewired + Diff.cost diff;
        Reg.set (Reg.gauge t.obs "ctrl.rewired") (float_of_int t.rewired);
        Reg.event_at t.obs ~at:(float_of_int index) Reg.Epoch_end ~node:t.n
          ~info:(Diff.cost diff)
      end;
      Ok
        {
          index;
          n_before;
          n_after = t.n;
          applied;
          rejections;
          strategy;
          cost_repair;
          cost_rebuild;
          diff;
          verification;
          audit;
        }

let run ?(batch = 8) t reqs =
  if batch < 1 then invalid_arg "Controller.run: batch must be >= 1";
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | rest ->
        let now, later =
          let rec split i acc = function
            | r :: tl when i < batch -> split (i + 1) (r :: acc) tl
            | tl -> (List.rev acc, tl)
          in
          split 0 [] rest
        in
        List.iter (feed t) now;
        (match commit_epoch t with Ok e -> go (e :: acc) later | Error err -> Error err)
  in
  go [] reqs

(* {2 Traces} *)

let parse_trace text =
  let lines = String.split_on_char '\n' text in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        let line =
          match String.index_opt line '#' with
          | Some j -> String.sub line 0 j
          | None -> line
        in
        match String.trim line with
        | "" -> go (i + 1) acc rest
        | "join" -> go (i + 1) (Join :: acc) rest
        | "leave" -> go (i + 1) (Leave :: acc) rest
        | s -> (
            match String.split_on_char ' ' s with
            | [ "resize"; m ] -> (
                match int_of_string_opt m with
                | Some m -> go (i + 1) (Resize m :: acc) rest
                | None ->
                    Error (Error.Invalid_trace { line = i; reason = "resize needs an integer" }))
            | _ ->
                Error
                  (Error.Invalid_trace
                     { line = i; reason = Printf.sprintf "unknown request %S" s })))
  in
  go 1 [] lines

let random_trace ~seed ?(join_probability = 0.55) ~family ~k ~n0 ~steps () =
  let floor = floor_of ~family ~k in
  let rng = Prng.create ~seed in
  let sim = ref n0 in
  List.init steps (fun _ ->
      let joining = !sim <= floor || Prng.float rng 1.0 < join_probability in
      if joining then begin
        incr sim;
        Join
      end
      else begin
        decr sim;
        Leave
      end)

(* {2 lhg-reconfig/2 emission} *)

let schema = "lhg-reconfig/2"

let edges_json edges =
  "["
  ^ String.concat ", " (List.map (fun (u, v) -> Printf.sprintf "[%d, %d]" u v) edges)
  ^ "]"

(* every epoch object carries its own schema field, so a single epoch
   cut out of the run document is still a self-describing lhg-reconfig/2
   record *)
let epoch_fields s e =
  let module S = Obs.Stream in
  S.int s "epoch" e.index;
  S.int s "n_before" e.n_before;
  S.int s "n_after" e.n_after;
  S.str s "strategy" (strategy_name e.strategy);
  S.obj s "cost" (fun s ->
      let opt k = function None -> S.null s k | Some c -> S.int s k c in
      opt "repair" e.cost_repair;
      opt "rebuild" e.cost_rebuild;
      S.int s "chosen" (Diff.cost e.diff));
  S.obj s "requests" (fun s ->
      S.int s "applied" e.applied;
      S.int s "rejected" (List.length e.rejections));
  S.obj s "diff" (fun s ->
      S.raw s "added" (edges_json e.diff.Diff.added);
      S.raw s "removed" (edges_json e.diff.Diff.removed);
      S.int s "kept" e.diff.Diff.kept);
  S.obj s "verification" (fun s -> S.bool s "verified" e.verification.verified);
  match e.audit with
  | None -> S.null s "chaos"
  | Some a ->
      S.obj s "chaos" (fun s ->
          S.int s "plans" (List.length a.Chaos.Audit.reports);
          S.bool s "boundary_ok" a.Chaos.Audit.boundary_ok)

let epoch_to_json e =
  let s = Obs.Stream.create ~schema () in
  epoch_fields s e;
  Obs.Stream.contents s

let run_to_json t epochs =
  let module S = Obs.Stream in
  let s = S.create ~schema () in
  S.str s "family" (Membership.family_name t.family);
  S.int s "k" t.k;
  S.int s "n0" t.n0;
  S.int s "n" t.n;
  S.arr s "epochs" (fun s ->
      List.iter
        (fun e ->
          S.element s (fun s ->
              S.str s "schema" schema;
              epoch_fields s e))
        epochs);
  let applied = List.fold_left (fun a e -> a + e.applied) 0 epochs in
  let rejected = List.fold_left (fun a e -> a + List.length e.rejections) 0 epochs in
  let cost = List.fold_left (fun a e -> a + Diff.cost e.diff) 0 epochs in
  let all_verified = List.for_all epoch_verified epochs in
  let boundary_ok =
    List.for_all
      (fun e -> match e.audit with None -> true | Some a -> a.Chaos.Audit.boundary_ok)
      epochs
  in
  S.summary s (fun s ->
      S.int s "epochs" (List.length epochs);
      S.int s "applied" applied;
      S.int s "rejected" rejected;
      S.int s "total_cost" cost;
      S.bool s "all_verified" all_verified;
      S.bool s "boundary_ok" boundary_ok);
  S.contents s

let pp_epoch fmt e =
  Format.fprintf fmt "epoch %d: n %d -> %d via %s (cost %d%s), %d applied, %d rejected, %s%s"
    e.index e.n_before e.n_after (strategy_name e.strategy) (Diff.cost e.diff)
    (match (e.cost_repair, e.cost_rebuild) with
    | Some r, Some b -> Printf.sprintf "; repair %d vs rebuild %d" r b
    | _ -> "")
    e.applied (List.length e.rejections)
    (if e.verification.verified then "verified" else "NOT VERIFIED")
    (match e.audit with
    | None -> ""
    | Some a ->
        Printf.sprintf ", chaos %s"
          (if a.Chaos.Audit.boundary_ok then "boundary ok" else "BOUNDARY VIOLATED"))
