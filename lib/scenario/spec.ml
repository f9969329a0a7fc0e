type metrics = [ `Json | `Text ]

type t = {
  topology : string;
  n : int;
  k : int;
  seed : int;
  jobs : int;
  engine : Netsim.Sim.engine;
  metrics : metrics option;
}

let default =
  {
    topology = "kdiamond";
    n = 46;
    k = 4;
    seed = 1;
    jobs = 1;
    engine = Netsim.Sim.Calendar;
    metrics = None;
  }

let entry t =
  match Topo.Registry.find t.topology with
  | Some e -> Ok e
  | None ->
      Error
        (Printf.sprintf "unknown kind %S (expected one of: %s)" t.topology
           (String.concat ", " Topo.Registry.names))

let validate t =
  if t.jobs < 0 then Error "--jobs must be >= 0"
  else
    Result.bind (entry t) (fun e ->
        if e.Topo.Registry.admissible ~n:t.n ~k:t.k then Ok t
        else Error e.Topo.Registry.requirement)

let graph t = Topo.Registry.build_graph ~kind:t.topology ~n:t.n ~k:t.k ~seed:t.seed

let csr ?big:_ t = Topo.Registry.build_csr_graph ~kind:t.topology ~n:t.n ~k:t.k ~seed:t.seed ()

let construction t =
  Result.bind (entry t) (fun e ->
      match e.Topo.Registry.construction with
      | Some c -> Ok c
      | None ->
          let witnessed =
            Topo.Registry.all
            |> List.filter_map (fun e ->
                   if e.Topo.Registry.construction <> None then Some e.Topo.Registry.name else None)
          in
          Error
            (Printf.sprintf "%s is not an LHG construction (expected one of: %s)" t.topology
               (String.concat ", " witnessed)))

let obs t = match t.metrics with None -> Obs.Registry.nil | Some _ -> Obs.Registry.create ()

let to_env ?obs ?pool t =
  let env = Flood.Env.default |> Flood.Env.with_seed t.seed |> Flood.Env.with_engine t.engine in
  let env = match obs with Some o -> Flood.Env.with_obs o env | None -> env in
  Flood.Env.with_pool pool env

let with_pool t f =
  if t.jobs < 0 then Error "--jobs must be >= 0"
  else if t.jobs = 0 then Ok (f (Some (Par.Pool.default ())))
  else if t.jobs = 1 then Ok (f None)
  else
    let pool = Par.Pool.create ~domains:t.jobs in
    Ok (Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) (fun () -> f (Some pool)))
