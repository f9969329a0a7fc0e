(* lhg_tool: command-line front end for the LHG library.

   Subcommands:
     generate  build a topology and print it (edge list or DOT)
     verify    check the four LHG properties of a generated topology
     tables    print EX/REG characteristic tables
     flood     run a flooding simulation with failures
     chaos     audit flooding against adversarial fault plans
     metrics   replay a protocol run and print its metrics registry
     diameter  diameter comparison across topologies for one n, k
     traffic   sustained multi-source streams over capacity-limited links
     assemble  distributed self-assembly of the overlay, no coordinator
     scenario  stream while the controller reconfigures, on one clock

   All topology dispatch goes through Topo.Registry — adding a family
   there makes it available to every subcommand at once.

   The common flags live in one Scenario.Spec.t record — topology,
   nodes, degree, seed, jobs, engine, metrics — built once by
   common_term with cmdliner's uniform prefix matching and consumed by
   the Spec helpers (graph/csr/construction/to_env/with_pool). The
   chaos, controller and traffic flag groups are likewise decoded once
   each, into the Scenario sub-records, so the standalone subcommands
   and the composite scenario subcommand share one source of truth per
   group instead of three copies of the decode. *)

open Cmdliner
module Spec = Scenario.Spec

let kinds = Topo.Registry.names

(* common args — one Spec.t threaded through every subcommand *)

type common = Spec.t

let metrics_format = Arg.enum [ ("json", `Json); ("text", `Text) ]

let kind_arg =
  let doc = Printf.sprintf "Topology kind: %s." (String.concat ", " kinds) in
  Arg.(value & opt string "kdiamond" & info [ "t"; "topology" ] ~docv:"KIND" ~doc)

(* the long aliases let cmdliner's prefix matching accept --n and --k *)
let n_arg = Arg.(value & opt int 46 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of nodes.")

let k_arg =
  Arg.(value & opt int 4 & info [ "k"; "k-degree" ] ~docv:"K" ~doc:"Connectivity degree.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "j"; "jobs" ] ~docv:"JOBS"
        ~doc:
          "Domains for the parallel subcommands (verify, chaos, controller, scenario, assemble, \
           traffic): 1 = sequential (default), 0 = auto ($(b,LHG_DOMAINS) or the machine's \
           recommended domain count), N = a pool of N domains. Results are identical at any \
           setting.")

let metrics_arg =
  Arg.(
    value
    & opt (some metrics_format) None
    & info [ "metrics" ] ~docv:"FORMAT"
        ~doc:"Report format where a subcommand produces one: $(b,json) or $(b,text).")

let engine_arg =
  let engine_conv = Arg.enum [ ("calendar", Netsim.Sim.Calendar); ("heap", Netsim.Sim.Heap) ] in
  Arg.(
    value
    & opt engine_conv Netsim.Sim.Calendar
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Event engine for the simulated subcommands: $(b,calendar) (default) or $(b,heap). \
           Results are identical.")

let common_term =
  let make topology n k seed jobs engine metrics =
    { Spec.topology; n; k; seed; jobs; engine; metrics }
  in
  Term.(const make $ kind_arg $ n_arg $ k_arg $ seed_arg $ jobs_arg $ engine_arg $ metrics_arg)

(* [f] gets [None] for a sequential run; a fresh pool is shut down on
   the way out, the shared default pool is joined at exit. *)
let with_jobs (c : common) f =
  match Spec.with_pool c f with
  | Ok status -> status
  | Error msg ->
      prerr_endline ("error: " ^ msg);
      1

(* A built topology costs tens (CSR) to hundreds (adjacency sets) of
   bytes per node; above this many nodes the build would thrash or OOM
   long before finishing, so refuse up front with a typed error
   instead. *)
let default_node_cap = 16_777_216

let node_cap () =
  match Sys.getenv_opt "LHG_MAX_NODES" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some cap when cap >= 1 -> cap
      | Some _ | None -> default_node_cap)
  | None -> default_node_cap

let check_node_cap n =
  let cap = node_cap () in
  if n > cap then Error (Overlay.Error.to_string (Overlay.Error.Node_cap { requested = n; cap }))
  else Ok ()

let with_built build (c : common) f =
  match Result.bind (check_node_cap c.n) (fun () -> build c) with
  | Error msg ->
      prerr_endline ("error: " ^ msg);
      1
  | Ok x -> f x

(* the build and verify subcommands take the adjacency-set graph; every
   simulating subcommand takes the registry's frozen CSR *)
let with_graph c f = with_built Spec.graph c f

let with_csr c f = with_built (fun c -> Spec.csr c) c f

(* generate *)

let witness_of kind n k = Topo.Registry.witness ~kind ~n ~k

let generate c dot out =
  with_graph c (fun g ->
      let doc =
        if dot then
          match witness_of c.topology c.n c.k with
          | Some b -> Lhg_core.Viz.to_dot ~name:c.topology b
          | None -> Graph_core.Dot.to_dot ~name:c.topology g
        else
          (* the comment line, then exactly what [verify --input] reads *)
          Printf.sprintf "# %s n=%d m=%d\n" c.topology (Graph_core.Graph.n g)
            (Graph_core.Graph.m g)
          ^ Graph_core.Serial.to_string g
      in
      match out with
      | Some path -> (
          match Graph_core.Dot.write_file ~path doc with
          | () ->
              Printf.printf "wrote %s\n" path;
              0
          | exception Sys_error msg ->
              prerr_endline ("error: " ^ msg);
              1)
      | None ->
          print_string doc;
          0)

let generate_cmd =
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz DOT instead of an edge list.") in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Build a topology and print it")
    Term.(const generate $ common_term $ dot $ out)

(* verify *)

let verify c skip_minimality input =
  let checked g =
    with_jobs c (fun pool ->
        let check_minimality = not skip_minimality in
        let report = Lhg_core.Verify.verify ~check_minimality ?pool g ~k:c.k in
        Format.printf "%a@." Lhg_core.Verify.pp_report report;
        if Lhg_core.Verify.verdict report then begin
          print_endline "verdict: this graph is a Logarithmic Harary Graph";
          0
        end
        else begin
          print_endline "verdict: NOT an LHG";
          1
        end)
  in
  match input with
  | Some path -> (
      match Graph_core.Serial.read_file ~path with
      | Ok g -> checked g
      | Error msg ->
          prerr_endline ("error: " ^ msg);
          1)
  | None -> with_graph c checked

let verify_cmd =
  let skip =
    Arg.(value & flag & info [ "skip-minimality" ] ~doc:"Skip the link-minimality check (P3): a degree scan plus one pair flow probe per edge whose endpoints both have degree above k.")
  in
  let input =
    Arg.(
      value
      & opt (some string) None
      & info [ "i"; "input" ] ~docv:"FILE" ~doc:"Read the graph from an edge-list file instead of generating it.")
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Check the four LHG properties")
    Term.(const verify $ common_term $ skip $ input)

(* tables *)

let tables (c : common) span =
  let k = c.k in
  Printf.printf "k = %d, n from %d to %d\n" k (2 * k) ((2 * k) + span);
  Printf.printf "%6s %6s %8s %10s %10s %12s\n" "n" "EX_jd" "EX_ktree" "EX_kdiam" "REG_ktree"
    "REG_kdiam";
  for n = 2 * k to (2 * k) + span do
    let b fmt = if fmt then "yes" else "-" in
    Printf.printf "%6d %6s %8s %10s %10s %12s\n" n
      (b (Lhg_core.Existence.ex_jd ~n ~k ()))
      (b (Lhg_core.Existence.ex_ktree ~n ~k))
      (b (Lhg_core.Existence.ex_kdiamond ~n ~k))
      (b (Lhg_core.Regularity.reg_ktree ~n ~k))
      (b (Lhg_core.Regularity.reg_kdiamond ~n ~k))
  done;
  0

let tables_cmd =
  let span = Arg.(value & opt int 30 & info [ "span" ] ~docv:"SPAN" ~doc:"Rows past n = 2k.") in
  Cmd.v
    (Cmd.info "tables" ~doc:"Print existence/regularity characteristic tables")
    Term.(const tables $ common_term $ span)

(* flood *)

let print_metrics ~format obs =
  match format with
  | `Json -> print_string (Obs.Export.to_json ~recent_events:32 obs)
  | `Text -> print_string (Obs.Export.to_text ~recent_events:32 obs)

(* Fault counts and the source are checked against the built graph
   up front: out-of-range input is a usage error (exit 2), not an
   exception from the samplers. *)
let flood_input_error csr ~crashes ~links ~source =
  let n = Graph_core.Csr.n csr in
  if crashes < 0 || crashes >= n then Some "--crashes must be >= 0 and < n"
  else if links < 0 || links > Graph_core.Csr.m csr then
    Some "--link-failures must be >= 0 and <= the edge count"
  else if source < 0 || source >= n then Some "--source must be >= 0 and < n"
  else None

let flood (c : common) crashes links source =
  with_csr c (fun csr ->
      match flood_input_error csr ~crashes ~links ~source with
      | Some msg ->
          prerr_endline ("error: " ^ msg);
          2
      | None ->
          let rng = Graph_core.Prng.create ~seed:c.seed in
          let crashed =
            Flood.Runner.random_crashes rng ~n:(Graph_core.Csr.n csr) ~count:crashes ~avoid:source
          in
          let failed_links = Flood.Runner.random_link_failures rng csr ~count:links in
          let obs = Spec.obs c in
          let env =
            Spec.to_env ~obs c
            |> Flood.Env.with_crashed crashed
            |> Flood.Env.with_failed_links failed_links
          in
          let r = Flood.Flooding.run_csr_env ~env ~csr ~source () in
          (match c.metrics with
          | Some `Json ->
              (* machine-readable mode: the JSON document is the whole output *)
              print_metrics ~format:`Json obs
          | Some `Text | None ->
              Printf.printf "flooded %s(n=%d, k=%d) from node %d with %d crashes, %d link failures\n"
                c.topology c.n c.k source crashes links;
              Printf.printf "  messages sent:      %d\n" r.Flood.Flooding.messages_sent;
              Printf.printf "  rounds (max hops):  %d\n" r.Flood.Flooding.max_hops;
              Printf.printf "  completion time:    %.2f\n" r.Flood.Flooding.completion_time;
              Printf.printf "  covered survivors:  %b\n" r.Flood.Flooding.covers_all_alive;
              if c.metrics = Some `Text then print_metrics ~format:`Text obs);
          if r.Flood.Flooding.covers_all_alive then 0 else 1)

let flood_cmd =
  let crashes =
    Arg.(value & opt int 0 & info [ "crashes" ] ~docv:"F" ~doc:"Crashed nodes (random).")
  in
  let links =
    Arg.(value & opt int 0 & info [ "link-failures" ] ~docv:"F" ~doc:"Failed links (random).")
  in
  let source = Arg.(value & opt int 0 & info [ "source" ] ~docv:"V" ~doc:"Flooding source.") in
  Cmd.v
    (Cmd.info "flood" ~doc:"Run one flooding simulation")
    Term.(const flood $ common_term $ crashes $ links $ source)

(* chaos *)

let ints_or l ~empty = if l = [] then empty else String.concat " " (List.map string_of_int l)

let links_or l ~empty =
  if l = [] then empty
  else String.concat " " (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) l)

let chaos_text (c : common) ~adversary_name ~nplans report =
  let open Chaos.Audit in
  Printf.printf "chaos audit: %s(n=%d, k=%d) from source %d\n" c.topology c.n c.k report.source;
  Printf.printf "  adversary: %s, %d plans, seed %d\n" adversary_name nplans c.seed;
  Printf.printf "  %6s %6s %9s %11s\n" "faults" "plans" "complete" "stochastic";
  List.iter
    (fun row ->
      Printf.printf "  %6d %6d %9d %11d\n" row.faults row.plans row.complete_plans
        row.stochastic_plans)
    report.matrix;
  if report.boundary_ok then
    Printf.printf "boundary: OK - every deterministic plan with <= %d faults delivered\n"
      (report.k - 1)
  else begin
    Printf.printf "boundary: VIOLATED - %d plan(s) with <= %d faults failed to deliver\n"
      (List.length report.violations) (report.k - 1);
    List.iter
      (fun r ->
        match r.witness with
        | None -> ()
        | Some w ->
            Printf.printf "  violation (plan %d, %d faults): crashed %s; links down %s; unreached %s\n"
              r.index r.weight
              (ints_or w.crashed_nodes ~empty:"(none)")
              (links_or w.downed_links ~empty:"(none)")
              (ints_or w.unreached ~empty:"(none)"))
      report.violations
  end;
  match first_witness report with
  | Some r when report.boundary_ok -> (
      match r.witness with
      | None -> ()
      | Some w ->
          Printf.printf "witness (plan %d, %d faults): crashed %s; links down %s; unreached %s\n"
            r.index r.weight
            (ints_or w.crashed_nodes ~empty:"(none)")
            (links_or w.downed_links ~empty:"(none)")
            (ints_or w.unreached ~empty:"(none)"))
  | _ -> ()

let chaos_json (c : common) ~adversary_name ~nplans report =
  let open Chaos.Audit in
  let module S = Obs.Stream in
  let json_ints l = "[" ^ String.concat ", " (List.map string_of_int l) ^ "]" in
  let json_links l =
    "[" ^ String.concat ", " (List.map (fun (u, v) -> Printf.sprintf "[%d, %d]" u v) l) ^ "]"
  in
  let s = S.create ~schema:"lhg-chaos/1" () in
  S.str s "topology" c.topology;
  S.int s "n" c.n;
  S.int s "k" report.k;
  S.int s "source" report.source;
  S.int s "seed" c.seed;
  S.str s "adversary" adversary_name;
  S.int s "plans" nplans;
  S.bool s "boundary_ok" report.boundary_ok;
  S.arr s "matrix" (fun s ->
      List.iter
        (fun row ->
          S.element s (fun s ->
              S.int s "faults" row.faults;
              S.int s "plans" row.plans;
              S.int s "complete" row.complete_plans;
              S.int s "stochastic" row.stochastic_plans))
        report.matrix);
  S.arr s "reports" (fun s ->
      List.iter
        (fun r ->
          S.element s (fun s ->
              S.int s "index" r.index;
              S.int s "weight" r.weight;
              S.bool s "stochastic" r.stochastic;
              S.bool s "complete" r.complete;
              S.int s "delivered" r.delivered;
              S.int s "obligated" r.obligated;
              S.float s "completion_time" r.completion_time;
              S.int s "messages" r.messages))
        report.reports);
  (match first_witness report with
  | Some ({ witness = Some w; _ } as r) ->
      S.obj s "witness" (fun s ->
          S.int s "plan" r.index;
          S.int s "weight" r.weight;
          S.raw s "crashed" (json_ints w.crashed_nodes);
          S.raw s "links_down" (json_links w.downed_links);
          S.raw s "unreached" (json_ints w.unreached))
  | _ -> S.null s "witness");
  print_string (S.contents s)

(* default source: the first vertex outside the adversary's prime
   targets, so crash plans never have to spare their strongest victim *)
let resolve_source ~requested ~avoid ~n =
  if requested >= 0 then requested
  else
    let in_avoid = Array.make n false in
    List.iter (fun v -> if v >= 0 && v < n then in_avoid.(v) <- true) avoid;
    let rec first v = if v >= n then 0 else if in_avoid.(v) then first (v + 1) else v in
    first 0

let chaos (c : common) (a : Scenario.chaos_audit) =
  match Scenario.validate_chaos_audit a with
  | Error e ->
      prerr_endline ("error: " ^ e);
      1
  | Ok () ->
      with_csr c (fun csr ->
          let n = Graph_core.Csr.n csr in
          let plan_file = a.Scenario.audit_plan_file in
          let max_faults = match a.Scenario.max_faults with Some f -> f | None -> c.k in
          match
            match plan_file with
            | Some path -> Result.map (fun p -> `File p) (Chaos.Plan.of_file path)
            | None ->
                Result.map
                  (fun adv -> `Sweep (adv, Chaos.Gen.aim csr adv))
                  (Chaos.Gen.of_string a.Scenario.adversary)
          with
          | Error e ->
              prerr_endline ("error: " ^ e);
              1
          | Ok plan_src -> (
              let avoid =
                match plan_src with
                | `File p -> Chaos.Plan.crash_victims p
                | `Sweep (_, aimed) -> Chaos.Gen.targets aimed
              in
              let source = resolve_source ~requested:a.Scenario.source ~avoid ~n in
              let adversary_name, plans =
                match plan_src with
                | `File p -> (Printf.sprintf "plan file %s" (Option.get plan_file), [ p ])
                | `Sweep (adv, aimed) ->
                    let rng = Graph_core.Prng.create ~seed:c.seed in
                    ( Chaos.Gen.to_string adv,
                      Chaos.Gen.sweep ~plans_per_level:a.Scenario.plans_per_level ~rng ~source
                        ~max_faults aimed )
              in
              with_jobs c (fun pool ->
                  let env = Spec.to_env ?pool c in
                  match Chaos.Audit.run ~env ~csr ~k:c.k ~source ~plans with
                  | exception Invalid_argument msg ->
                      prerr_endline ("error: " ^ msg);
                      1
                  | report ->
                      let nplans = List.length plans in
                      (match c.metrics with
                      | Some `Json -> chaos_json c ~adversary_name ~nplans report
                      | Some `Text | None -> chaos_text c ~adversary_name ~nplans report);
                      if report.Chaos.Audit.boundary_ok then 0 else 1)))

(* the chaos flag group, decoded once into Scenario.chaos_audit *)
let chaos_term =
  let adversary =
    let doc =
      "Plan generator: $(b,min-cut) (crash minimum vertex cuts), $(b,min-edge-cut), \
       $(b,high-degree), $(b,random) (static crash sets), $(b,dynamic) (timed faults with \
       recovery)."
    in
    Arg.(value & opt string "min-cut" & info [ "a"; "adversary" ] ~docv:"ADV" ~doc)
  in
  let plan_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan" ] ~docv:"FILE"
          ~doc:"Audit a single fault plan from a file (see lib/chaos for the format) instead of \
                generating a sweep.")
  in
  let source =
    Arg.(
      value
      & opt int (-1)
      & info [ "source" ] ~docv:"V"
          ~doc:"Flooding source; -1 (default) picks the first vertex outside the adversary's \
                target set.")
  in
  let max_faults =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-faults" ] ~docv:"F"
          ~doc:"Largest fault budget to sweep (default: the connectivity degree $(b,k), one past \
                the guarantee).")
  in
  let plans_per_level =
    Arg.(
      value
      & opt int 3
      & info [ "plans-per-level" ] ~docv:"P" ~doc:"Plans generated per fault budget (default 3).")
  in
  let make adversary audit_plan_file source max_faults plans_per_level =
    { Scenario.adversary; audit_plan_file; source; max_faults; plans_per_level }
  in
  Term.(const make $ adversary $ plan_file $ source $ max_faults $ plans_per_level)

let chaos_cmd =
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Audit flooding against adversarial fault plans and report the k-1 guarantee boundary")
    Term.(const chaos $ common_term $ chaos_term)

(* metrics *)

let metrics_run (c : common) protocol format =
  with_csr c (fun csr ->
      let obs = Obs.Registry.create () in
      let seed = c.seed in
      let ok =
        match protocol with
        | `Flood ->
            ignore (Flood.Flooding.run_csr_env ~env:(Spec.to_env ~obs c) ~csr ~source:0 ());
            true
        | `Gossip ->
            ignore (Flood.Gossip.run_env ~env:(Spec.to_env ~obs c) ~csr ~source:0 ~fanout:(max 1 (c.k - 1)) ~ttl:(Flood.Gossip.default_ttl ~n:(Graph_core.Csr.n csr)) ());
            true
        | `Pif ->
            ignore (Flood.Pif.run_env ~env:(Spec.to_env ~obs c) ~csr ~source:0 ());
            true
        | `Churn -> (
            match Scenario.family_of_topology c.topology with
            | None ->
                prerr_endline "error: churn metrics support kinds ktree, kdiamond, jd, harary";
                false
            | Some family -> (
                let rng = Graph_core.Prng.create ~seed in
                match Overlay.Churn.run rng ~family ~k:c.k ~n0:c.n ~steps:50 ~obs () with
                | Ok _ -> true
                | Error e ->
                    prerr_endline ("error: " ^ Overlay.Error.to_string e);
                    false))
      in
      if not ok then 1
      else begin
        let format =
          match format with
          | Some f -> f
          | None -> ( match c.metrics with Some f -> f | None -> `Text)
        in
        print_metrics ~format obs;
        0
      end)

let metrics_cmd =
  let protocol =
    let doc = "Protocol to replay: flood, gossip, pif or churn." in
    Arg.(
      value
      & opt (enum [ ("flood", `Flood); ("gossip", `Gossip); ("pif", `Pif); ("churn", `Churn) ])
          `Flood
      & info [ "protocol" ] ~docv:"PROTO" ~doc)
  in
  let format =
    Arg.(
      value
      & opt (some metrics_format) None
      & info [ "format" ] ~docv:"FORMAT" ~doc:"json or text (alias of --metrics; default text).")
  in
  Cmd.v
    (Cmd.info "metrics" ~doc:"Replay a protocol run and print its metrics registry")
    Term.(const metrics_run $ common_term $ protocol $ format)

(* diameter *)

let diameter (c : common) =
  Printf.printf "%12s %8s %8s %10s\n" "topology" "edges" "diam" "flood-rounds";
  List.iter
    (fun kind ->
      match
        Result.bind (check_node_cap c.n) (fun () ->
            Topo.Registry.build_csr_graph ~kind ~n:c.n ~k:c.k ~seed:c.seed ())
      with
      | Error msg -> Printf.printf "%12s %s\n" kind ("(" ^ msg ^ ")")
      | Ok csr ->
          let d =
            match Graph_core.Paths.diameter_csr csr with Some d -> string_of_int d | None -> "inf"
          in
          let rounds = (Flood.Sync.flood_csr csr ~source:0).Flood.Sync.rounds in
          Printf.printf "%12s %8d %8s %10d\n" kind (Graph_core.Csr.m csr) d rounds)
    [ "harary"; "ktree"; "kdiamond"; "jd"; "expander"; "hypercube" ];
  0

let diameter_cmd =
  Cmd.v
    (Cmd.info "diameter" ~doc:"Compare diameters across topologies")
    Term.(const diameter $ common_term)

(* cut *)

let cut c =
  with_csr c (fun csr ->
      let vc = Graph_core.Connectivity.min_vertex_cut csr in
      let ec = Graph_core.Connectivity.min_edge_cut csr in
      let ints l = String.concat ", " (List.map string_of_int l) in
      let edges l = String.concat ", " (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) l) in
      Printf.printf "minimum vertex cut (%d vertices): %s\n" (List.length vc)
        (if vc = [] then "(none - complete or disconnected)" else ints vc);
      Printf.printf "minimum edge cut   (%d edges):    %s\n" (List.length ec)
        (if ec = [] then "(none)" else edges ec);
      0)

let cut_cmd =
  Cmd.v
    (Cmd.info "cut" ~doc:"Show a minimum vertex/edge cut (the adversary's target set)")
    Term.(const cut $ common_term)

(* route *)

let witnessed_kinds () =
  List.filter_map
    (fun e ->
      match e.Topo.Registry.construction with Some _ -> Some e.Topo.Registry.name | None -> None)
    Topo.Registry.all

let route_cmd_impl (c : common) src dst =
  match Topo.Registry.find c.topology with
  | None | Some { Topo.Registry.construction = None; _ } ->
      Printf.eprintf "error: route needs a witnessed LHG kind (%s)\n"
        (String.concat ", " (witnessed_kinds ()));
      1
  | Some _ when src < 0 || src >= c.n ->
      prerr_endline "error: --src must be >= 0 and < n";
      1
  | Some _ when dst < 0 || dst >= c.n ->
      prerr_endline "error: --dst must be >= 0 and < n";
      1
  | Some { Topo.Registry.construction = Some cns; _ } -> (
      match Lhg_core.Build.build cns ~n:c.n ~k:c.k with
      | Error e ->
          prerr_endline ("error: " ^ Lhg_core.Build.error_to_string e);
          1
      | Ok b ->
          Printf.printf "structured routes %d -> %d on %s(%d,%d):\n" src dst c.topology c.n c.k;
          List.iteri
            (fun i p ->
              Printf.printf "  route %d (%d hops): %s\n" i
                (List.length p - 1)
                (String.concat " -> " (List.map string_of_int p)))
            (Lhg_core.Route.all_routes b ~src ~dst);
          0)

let route_cmd =
  let src = Arg.(value & opt int 0 & info [ "src" ] ~docv:"V" ~doc:"Source vertex.") in
  let dst = Arg.(value & opt int 1 & info [ "dst" ] ~docv:"V" ~doc:"Destination vertex.") in
  Cmd.v
    (Cmd.info "route" ~doc:"Print the k structured tree-copy routes between two vertices")
    Term.(const route_cmd_impl $ common_term $ src $ dst)

(* churn *)

let churn (c : common) steps =
  match Scenario.family_of_topology c.topology with
  | None ->
      prerr_endline "error: churn supports kinds ktree, kdiamond, jd, harary";
      1
  | Some family -> (
      let rng = Graph_core.Prng.create ~seed:c.seed in
      match Overlay.Churn.run rng ~family ~k:c.k ~n0:c.n ~steps () with
      | Error e ->
          prerr_endline ("error: " ^ Overlay.Error.to_string e);
          1
      | Ok stats ->
          Format.printf "%a@." Overlay.Churn.pp_stats stats;
          0)

let churn_cmd =
  let steps =
    Arg.(value & opt int 50 & info [ "steps" ] ~docv:"N" ~doc:"Membership events to simulate.")
  in
  Cmd.v
    (Cmd.info "churn" ~doc:"Simulate join/leave churn and report rewiring cost")
    Term.(const churn $ common_term $ steps)

(* inspect *)

let inspect (c : common) =
  let build =
    match Topo.Registry.find c.topology with
    | None | Some { Topo.Registry.construction = None; _ } -> None
    | Some { Topo.Registry.construction = Some cns; _ } -> Some (Lhg_core.Build.build cns ~n:c.n ~k:c.k)
  in
  match build with
  | None ->
      Printf.eprintf "error: inspect needs a witnessed LHG kind (%s)\n"
        (String.concat ", " (witnessed_kinds ()));
      1
  | Some (Error e) ->
      prerr_endline ("error: " ^ Lhg_core.Build.error_to_string e);
      1
  | Some (Ok b) ->
      let n = c.n and k = c.k in
      let shape = b.Lhg_core.Build.shape in
      let non_leaf, shared, added, unshared = Lhg_core.Shape.counts shape in
      Printf.printf "%s witness for (n=%d, k=%d)\n" c.topology n k;
      Printf.printf "  tree nodes:       %d (%d internal/root, %d shared leaves, %d added, %d unshared groups)\n"
        (Lhg_core.Shape.size shape) non_leaf shared added unshared;
      Printf.printf "  tree height:      %d\n" (Lhg_core.Route.height b);
      Printf.printf "  graph:            %d vertices, %d edges\n"
        (Graph_core.Graph.n b.Lhg_core.Build.graph)
        (Graph_core.Graph.m b.Lhg_core.Build.graph);
      (match Lhg_core.Existence.decompose_ktree ~n ~k with
      | Some (alpha, j) -> Printf.printf "  K-TREE split:     alpha=%d, j=%d\n" alpha j
      | None -> ());
      (match Lhg_core.Existence.decompose_kdiamond ~n ~k with
      | Some (alpha, j) -> Printf.printf "  K-DIAMOND split:  alpha=%d, j=%d\n" alpha j
      | None -> ());
      Printf.printf "  route bound:      %d vertices\n" (Lhg_core.Route.max_route_length b);
      Printf.printf "  K-TREE witnesses: %d added-leaf distributions for this (n,k)\n"
        (Lhg_core.Enumerate.count_ktree ~n ~k);
      Printf.printf "  k-regular:        %b (REG_KDIAMOND predicts %b)\n"
        (Graph_core.Degree.is_k_regular b.Lhg_core.Build.graph ~k)
        (Lhg_core.Regularity.reg_kdiamond ~n ~k);
      Printf.printf "  constraint check: ktree=%b kdiamond=%b\n"
        (Lhg_core.Constraint_check.satisfies_ktree shape)
        (Lhg_core.Constraint_check.satisfies_kdiamond shape);
      0

let inspect_cmd =
  Cmd.v
    (Cmd.info "inspect" ~doc:"Print the structural witness of an LHG construction")
    Term.(const inspect $ common_term)

(* grow *)

let grow (c : common) verbose =
  let n = c.n and k = c.k in
  match check_node_cap n with
  | Error msg ->
      prerr_endline ("error: " ^ msg);
      1
  | Ok () when k < 3 ->
      prerr_endline "error: grow needs k >= 3";
      1
  | Ok () when n < 2 * k ->
      Printf.eprintf "error: target n must be >= 2k = %d\n" (2 * k);
      1
  | Ok () ->
      let overlay = Overlay.Incremental.start ~k () in
      while Overlay.Incremental.n overlay < n do
        let r = Overlay.Incremental.join overlay in
        if verbose then
          Printf.printf "n=%d %s (+%d/-%d)\n"
            (Overlay.Incremental.n overlay)
            (Overlay.Incremental.op_name r.Overlay.Incremental.op)
            r.Overlay.Incremental.edges_added r.Overlay.Incremental.edges_removed
      done;
      let g = Overlay.Incremental.graph overlay in
      let joins = n - (2 * k) in
      Printf.printf "grew to n=%d (k=%d): %d edges, %d joins, %d edges rewired (%.1f per join)\n"
        n k (Graph_core.Graph.m g) joins
        (Overlay.Incremental.total_rewired overlay)
        (if joins = 0 then 0.0
         else float_of_int (Overlay.Incremental.total_rewired overlay) /. float_of_int joins);
      Printf.printf "verifier: %s\n"
        (if Lhg_core.Verify.is_lhg ~check_minimality:false g ~k then "LHG confirmed"
         else "NOT an LHG (bug)");
      0

let grow_cmd =
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every join operation.") in
  Cmd.v
    (Cmd.info "grow" ~doc:"Grow an overlay one peer at a time with incremental proof-step joins")
    Term.(const grow $ common_term $ verbose)

(* controller *)

let controller (c : common) (cc : Scenario.controller) =
  match Scenario.family_of_topology c.topology with
  | None ->
      prerr_endline "error: controller supports kinds ktree, kdiamond, jd, harary";
      1
  | Some family -> (
      match
        let ( let* ) = Result.bind in
        let* () = Scenario.validate_controller cc in
        let* chaos = Scenario.controller_chaos cc ~seed:c.seed in
        let* trace = Scenario.load_trace cc ~spec:c ~family in
        Ok (chaos, trace)
      with
      | Error e ->
          prerr_endline ("error: " ^ e);
          1
      | Ok (chaos, trace) ->
          with_jobs c (fun pool ->
              match Overlay.Controller.create ?pool ?chaos ~family ~k:c.k ~n:c.n () with
              | Error e ->
                  prerr_endline ("error: " ^ Overlay.Error.to_string e);
                  1
              | Ok t -> (
                  match Overlay.Controller.run ~batch:cc.Scenario.batch t trace with
                  | Error e ->
                      prerr_endline ("error: " ^ Overlay.Error.to_string e);
                      1
                  | Ok epochs ->
                      let ok = List.for_all Overlay.Controller.epoch_ok epochs in
                      (match c.metrics with
                      | Some `Json ->
                          print_string (Overlay.Controller.run_to_json t epochs)
                      | Some `Text | None ->
                          List.iter
                            (fun e ->
                              Format.printf "%a@." Overlay.Controller.pp_epoch e)
                            epochs;
                          let applied =
                            List.fold_left
                              (fun a (e : Overlay.Controller.epoch) ->
                                a + e.Overlay.Controller.applied)
                              0 epochs
                          in
                          Printf.printf
                            "controller: %d epochs, %d events applied, final n=%d, %s\n"
                            (List.length epochs) applied (Overlay.Controller.n t)
                            (if ok then "all epochs verified"
                             else "VERIFICATION OR BOUNDARY FAILURE"));
                      if ok then 0 else 1)))

(* the controller flag group, decoded once into Scenario.controller *)
let controller_term =
  let steps =
    Arg.(
      value
      & opt int 40
      & info [ "steps" ] ~docv:"N" ~doc:"Length of the generated random request trace.")
  in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Request trace file (one request per line: $(b,join), $(b,leave) or $(b,resize \
             N); # comments) instead of a generated trace.")
  in
  let batch =
    Arg.(
      value & opt int 8 & info [ "batch" ] ~docv:"B" ~doc:"Requests batched into one epoch.")
  in
  let join_probability =
    Arg.(
      value
      & opt (some float) None
      & info [ "join-probability" ] ~docv:"P"
          ~doc:"Join probability of the generated trace (default 0.55).")
  in
  let chaos_adversary =
    Arg.(
      value
      & opt (some string) None
      & info [ "chaos" ] ~docv:"ADVERSARY"
          ~doc:
            "Run a chaos audit against the overlay after every epoch (min-cut, min-edge-cut, \
             high-degree, random, dynamic).")
  in
  let plans_per_level =
    Arg.(
      value
      & opt int 2
      & info [ "plans-per-level" ] ~docv:"P" ~doc:"Chaos plans per fault level and epoch.")
  in
  let max_faults =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-faults" ] ~docv:"F" ~doc:"Chaos fault budget per epoch (default k).")
  in
  let make steps trace_file batch join_probability chaos_adversary chaos_plans_per_level
      chaos_max_faults =
    {
      Scenario.steps;
      trace_file;
      batch;
      join_probability;
      chaos_adversary;
      chaos_plans_per_level;
      chaos_max_faults;
    }
  in
  Term.(
    const make $ steps $ trace_file $ batch $ join_probability $ chaos_adversary
    $ plans_per_level $ max_faults)

let controller_cmd =
  Cmd.v
    (Cmd.info "controller"
       ~doc:
         "Run the epoch-based reconfiguration controller over a request trace, emitting \
          lhg-reconfig/2 epoch diffs")
    Term.(const controller $ common_term $ controller_term)

(* traffic *)

let traffic (c : common) (tc : Scenario.traffic) =
  let workload = tc.Scenario.workload in
  match Scenario.load_plan tc with
  | Error e ->
      prerr_endline ("error: " ^ e);
      1
  | Ok plan ->
      with_csr c (fun csr ->
          match Scenario.validate_traffic tc ~n:(Graph_core.Csr.n csr) with
          | Error e ->
              prerr_endline ("error: " ^ e);
              1
          | Ok () ->
              with_jobs c (fun pool ->
                  let env = Spec.to_env ?pool c |> Scenario.with_traffic tc in
                  match Traffic.Driver.run_csr_env ~env ?plan ~csr ~workload () with
                  | exception Invalid_argument msg ->
                      prerr_endline ("error: " ^ msg);
                      1
                  | r ->
                      let slo_ok = Scenario.slo_ok tc r in
                      (match c.metrics with
                      | Some `Json ->
                          print_string
                            (Scenario.report_traffic ~topology:c.topology ~n:c.n ~k:c.k
                               ~seed:c.seed r)
                      | Some `Text | None ->
                          let open Traffic.Driver in
                          Printf.printf
                            "traffic %s(n=%d, k=%d): %d sources x %d chunks, %s rate %g, %s\n"
                            c.topology c.n c.k
                            (List.length r.sources)
                            workload.Traffic.Workload.chunks_per_source
                            (Traffic.Workload.arrival_name workload.Traffic.Workload.arrival)
                            workload.Traffic.Workload.rate
                            (Traffic.Workload.dissemination_name
                               workload.Traffic.Workload.dissemination);
                          Printf.printf "  wire messages:      %d\n" r.wire_messages;
                          Printf.printf "  deliveries:         %d\n" r.deliveries;
                          Printf.printf "  dropped q/l/c/r:    %d/%d/%d/%d\n" r.dropped_queue
                            r.dropped_link r.dropped_crash r.dropped_random;
                          Printf.printf "  duration:           %.2f\n" r.duration;
                          Printf.printf "  throughput:         %.3f msgs/unit\n" r.throughput;
                          Printf.printf "  delivery fraction:  %.4f\n" r.delivery_fraction;
                          Printf.printf "  delay p50/p95/p99:  %.2f/%.2f/%.2f\n" r.p50_delay
                            r.p95_delay r.p99_delay;
                          Printf.printf "  max queue backlog:  %d\n" r.max_queue_backlog;
                          if r.hot_links <> [] then begin
                            Printf.printf "  hottest links:     ";
                            List.iter
                              (fun (src, dst, peak) ->
                                Printf.printf " %d->%d(%d)" src dst peak)
                              r.hot_links;
                            print_newline ()
                          end;
                          if workload.Traffic.Workload.dissemination = Traffic.Workload.Trees
                          then
                            Printf.printf "  tree fallbacks:     %d\n" r.tree_fallbacks;
                          if plan <> None then
                            Printf.printf "  recovery time:      %.2f\n" r.recovery_time;
                          Printf.printf "  SLO:                %s\n"
                            (if slo_ok then "ok" else "VIOLATED"));
                      if slo_ok then 0 else 1))

(* the traffic flag group, decoded once into Scenario.traffic *)
let traffic_term =
  let sources =
    Arg.(value & opt int 4 & info [ "sources" ] ~docv:"S" ~doc:"Source nodes (spread evenly).")
  in
  let chunks =
    Arg.(value & opt int 8 & info [ "chunks" ] ~docv:"C" ~doc:"Chunks injected per source.")
  in
  let rate =
    Arg.(
      value
      & opt float 0.05
      & info [ "rate" ] ~docv:"R" ~doc:"Chunks per time unit, per source.")
  in
  let arrival =
    let arrival_conv =
      Arg.enum [ ("periodic", Traffic.Workload.Periodic); ("poisson", Traffic.Workload.Poisson) ]
    in
    Arg.(
      value
      & opt arrival_conv Traffic.Workload.Periodic
      & info [ "arrival" ] ~docv:"PROCESS" ~doc:"Arrival process: $(b,periodic) or $(b,poisson).")
  in
  let dissemination =
    let dissemination_conv =
      Arg.enum
        [
          ("flood", Traffic.Workload.Flood);
          ("trees", Traffic.Workload.Trees);
          ("gossip", Traffic.Workload.Gossip);
        ]
    in
    Arg.(
      value
      & opt dissemination_conv Traffic.Workload.Flood
      & info [ "dissemination" ] ~docv:"STRATEGY"
          ~doc:
            "How chunks spread: $(b,flood) (default, every edge), $(b,trees) (striped over \
             edge-disjoint spanning trees, n-1 messages per chunk, flood fallback on dead \
             edges), or $(b,gossip) (random push with TTL).")
  in
  let capacity =
    Arg.(
      value
      & opt (some float) None
      & info [ "capacity" ] ~docv:"R"
          ~doc:"Per-link service rate (messages per time unit); default infinite bandwidth.")
  in
  let queue_cap =
    Arg.(
      value
      & opt (some int) None
      & info [ "queue-cap" ] ~docv:"Q" ~doc:"Bound on each link FIFO's backlog (default unbounded).")
  in
  let queue_policy =
    let policy_conv =
      Arg.enum
        [ ("drop-tail", Netsim.Network.Drop_tail); ("block", Netsim.Network.Block) ]
    in
    Arg.(
      value
      & opt (some policy_conv) None
      & info [ "queue-policy" ] ~docv:"POLICY"
          ~doc:"What a full link queue does: $(b,drop-tail) (default) or $(b,block).")
  in
  let plan_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan" ] ~docv:"FILE" ~doc:"Chaos plan to schedule mid-stream.")
  in
  let min_delivery =
    Arg.(
      value
      & opt float 1.0
      & info [ "min-delivery" ] ~docv:"F"
          ~doc:"SLO: minimum delivery fraction (default 1.0 — full coverage).")
  in
  let max_p95 =
    Arg.(
      value
      & opt float infinity
      & info [ "max-p95" ] ~docv:"T" ~doc:"SLO: maximum p95 delivery delay (default unbounded).")
  in
  let bands =
    Arg.(
      value
      & opt int 1
      & info [ "bands" ] ~docv:"B"
          ~doc:
            "Priority bands per capacity-limited link (1-4, default 1). With more than one \
             band, control messages (epoch commits under $(b,scenario)) ride band 0 and \
             overtake the queued data backlog.")
  in
  let make sources chunks rate arrival dissemination capacity queue_cap queue_policy bands
      plan_file min_delivery max_p95 =
    let workload =
      Traffic.Workload.default
      |> Traffic.Workload.with_source_count sources
      |> Traffic.Workload.with_chunks_per_source chunks
      |> Traffic.Workload.with_rate rate
      |> Traffic.Workload.with_arrival arrival
      |> Traffic.Workload.with_dissemination dissemination
    in
    {
      Scenario.workload;
      capacity;
      queue_cap;
      queue_policy;
      bands;
      plan_file;
      min_delivery;
      max_p95;
    }
  in
  Term.(
    const make $ sources $ chunks $ rate $ arrival $ dissemination $ capacity $ queue_cap
    $ queue_policy $ bands $ plan_file $ min_delivery $ max_p95)

let traffic_cmd =
  Cmd.v
    (Cmd.info "traffic"
       ~doc:
         "Drive a sustained multi-source traffic stream through the topology, with optional \
          per-link capacity and bounded FIFO queues, and check delivery SLOs")
    Term.(const traffic $ common_term $ traffic_term)

(* assemble *)

let assemble (c : common) crashes plan_file max_rounds certify =
  match Result.bind (check_node_cap c.n) (fun () -> Spec.construction c) with
  | Error msg ->
      prerr_endline ("error: " ^ msg);
      1
  | Ok construction -> (
      match
        match plan_file with
        | Some path -> Result.map Option.some (Chaos.Plan.of_file path)
        | None -> Ok None
      with
      | Error e ->
          prerr_endline ("error: " ^ e);
          1
      | Ok None when crashes < 0 || crashes >= c.n ->
          (* a usage error, like flood's fault counts *)
          prerr_endline "error: --crashes must be >= 0 and < n";
          2
      | Ok plan ->
          (* --crashes F draws F victims from the seed and staggers the
             crashes one gossip round apart, mid-assembly — the same
             shape Assemble.Audit sweeps; an explicit --plan wins *)
          let plan =
            match (plan, crashes) with
            | (Some _ as p), _ | p, 0 -> p
            | None, f ->
                let victims =
                  Graph_core.Prng.sample_without_replacement
                    (Graph_core.Prng.create ~seed:c.seed)
                    ~k:f ~n:c.n
                  |> List.sort compare
                in
                let period = Assemble.Run.default_params.Assemble.Run.period in
                Some
                  (Chaos.Plan.make
                     (List.mapi
                        (fun j v ->
                          {
                            Chaos.Plan.at = period *. float_of_int (j + 1);
                            event = Chaos.Plan.Crash v;
                          })
                        victims))
          in
          let obs = Spec.obs c in
          with_jobs c (fun pool ->
              let env = Spec.to_env ~obs ?pool c in
              let params = { Assemble.Run.default_params with Assemble.Run.max_rounds } in
              match
                Assemble.Run.run ~env ?plan ~params ~certify ~construction ~n:c.n ~k:c.k ()
              with
              | exception Invalid_argument msg ->
                  prerr_endline ("error: " ^ msg);
                  1
              | r ->
                  (match c.metrics with
                  | Some `Json -> print_string (Assemble.Run.to_json r)
                  | Some `Text | None ->
                      let open Assemble.Run in
                      Printf.printf "assembled %s(n=%d, k=%d) seed %d\n"
                        (construction_name r.construction) r.n r.k r.seed;
                      Printf.printf "  converged:          %b\n" r.converged;
                      Printf.printf "  verified:           %b\n" r.verified;
                      Printf.printf "  matches target:     %b\n" r.matches_target;
                      (match r.certified with
                      | Some armed -> Printf.printf "  certified:          %b\n" armed
                      | None -> ());
                      Printf.printf "  rounds:             %d (gossip %d%s)\n" r.rounds
                        r.gossip_rounds
                        (if r.capped then ", CAPPED" else "");
                      Printf.printf "  duration:           %.2f\n" r.duration;
                      Printf.printf "  messages:           %d (push %d, reply %d, req %d, ack %d, nack %d)\n"
                        r.messages r.pushes r.replies r.link_reqs r.link_acks r.link_nacks;
                      Printf.printf "  freezes/unfreezes:  %d/%d\n" r.freezes r.unfreezes;
                      Printf.printf "  deaths declared:    %d\n" r.deaths_declared;
                      Printf.printf "  views interned:     %d\n" r.views_interned;
                      Printf.printf "  final members:      %d (%d declared dead, %d crashed)\n"
                        (Array.length r.final_members)
                        (Array.length r.declared_dead)
                        (Array.length r.retired));
                  if r.Assemble.Run.converged && r.Assemble.Run.verified then 0 else 1))

let assemble_cmd =
  let crashes =
    Arg.(
      value
      & opt int 0
      & info [ "crashes" ] ~docv:"F"
          ~doc:"Crash $(docv) seed-chosen nodes mid-assembly, one gossip round apart.")
  in
  let plan_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan" ] ~docv:"FILE"
          ~doc:"Chaos plan to schedule on the substrate mid-assembly (overrides --crashes).")
  in
  let max_rounds =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-rounds" ] ~docv:"R"
          ~doc:"Abort backstop in gossip rounds (default: scaled with log n).")
  in
  let certify =
    Arg.(
      value
      & flag
      & info [ "certify" ]
          ~doc:"Additionally rebuild an Overlay.Cert connectivity certificate over the realized \
                overlay.")
  in
  Cmd.v
    (Cmd.info "assemble"
       ~doc:
         "Self-assemble the overlay by gossip — no coordinator — and verify the realized \
          topology; exit 0 iff converged and verified")
    Term.(const assemble $ common_term $ crashes $ plan_file $ max_rounds $ certify)

(* scenario: the composite — stream while the controller reconfigures *)

let scenario_run (c : common) (tc : Scenario.traffic) (cc : Scenario.controller) epoch_interval
    =
  let sc = { Scenario.spec = c; traffic = tc; controller = cc; epoch_interval } in
  with_jobs c (fun pool ->
      match Scenario.run ?pool sc with
      | Error e ->
          prerr_endline ("error: " ^ e);
          1
      | Ok o ->
          (match c.metrics with
          | Some `Json -> print_string (Scenario.report sc o)
          | Some `Text | None ->
              let open Traffic.Driver in
              let r = o.Scenario.result in
              let repairs =
                List.length
                  (List.filter
                     (fun (e : Overlay.Controller.epoch) ->
                       e.Overlay.Controller.strategy = Overlay.Controller.Repair)
                     o.Scenario.epochs)
              in
              let rebuilds = List.length o.Scenario.epochs - repairs in
              Printf.printf "scenario %s(n=%d, k=%d): %d sources x %d chunks, %s, %d epochs every %g\n"
                c.topology c.n c.k (List.length r.sources)
                tc.Scenario.workload.Traffic.Workload.chunks_per_source
                (Traffic.Workload.dissemination_name
                   tc.Scenario.workload.Traffic.Workload.dissemination)
                (List.length o.Scenario.epochs) epoch_interval;
              Printf.printf "  epochs applied:     %d (%d repair / %d rebuild), union n %d\n"
                r.epochs_applied repairs rebuilds o.Scenario.union_n;
              Printf.printf "  all verified:       %b\n" o.Scenario.all_verified;
              Printf.printf "  restripe:           %d patched, %d repacked\n" r.restripe_patched
                r.restripe_repacked;
              Printf.printf "  control messages:   %d\n" r.control_messages;
              Printf.printf "  deliveries:         %d\n" r.deliveries;
              Printf.printf "  delivery fraction:  %.4f\n" r.delivery_fraction;
              Printf.printf "  delay p50/p95/p99:  %.2f/%.2f/%.2f\n" r.p50_delay r.p95_delay
                r.p99_delay;
              Printf.printf "  duration:           %.2f\n" r.duration;
              Printf.printf "  recovery time:      %.2f\n" r.recovery_time;
              Printf.printf "  SLO:                %s\n"
                (if o.Scenario.slo_ok then "ok" else "VIOLATED"));
          if o.Scenario.slo_ok && o.Scenario.all_verified then 0 else 1)

let scenario_cmd =
  let epoch_interval =
    Arg.(
      value
      & opt float 50.0
      & info [ "epoch-interval" ] ~docv:"T"
          ~doc:"Simulated time between controller epoch commits (default 50).")
  in
  Cmd.v
    (Cmd.info "scenario"
       ~doc:
         "Stream sustained traffic while the reconfiguration controller commits epochs on the \
          same simulated clock: leavers crash, joiners recover, rewired links flip, spanning \
          trees re-stripe incrementally, and (with --bands > 1) commits announce themselves \
          on the priority band; exit 0 iff the SLOs hold and every epoch verified")
    Term.(const scenario_run $ common_term $ traffic_term $ controller_term $ epoch_interval)

let main_cmd =
  let doc = "Logarithmic Harary Graphs: construction, verification and flooding" in
  Cmd.group (Cmd.info "lhg_tool" ~version:"1.0.0" ~doc)
    [ generate_cmd; verify_cmd; tables_cmd; flood_cmd; chaos_cmd; metrics_cmd; diameter_cmd; cut_cmd; route_cmd; churn_cmd; controller_cmd; grow_cmd; inspect_cmd; traffic_cmd; assemble_cmd; scenario_cmd ]

let () = exit (Cmd.eval' main_cmd)
