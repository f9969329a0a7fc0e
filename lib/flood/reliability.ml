module Prng = Graph_core.Prng

type estimate = { probability : float; lo : float; hi : float; trials : int }

let wilson_interval ~successes ~trials =
  if trials <= 0 then invalid_arg "Reliability.wilson_interval: no trials";
  let z = 1.96 in
  let nf = float_of_int trials in
  let p = float_of_int successes /. nf in
  let z2 = z *. z in
  let denom = 1.0 +. (z2 /. nf) in
  let centre = p +. (z2 /. (2.0 *. nf)) in
  let spread = z *. sqrt ((p *. (1.0 -. p) /. nf) +. (z2 /. (4.0 *. nf *. nf))) in
  (max 0.0 ((centre -. spread) /. denom), min 1.0 ((centre +. spread) /. denom))

let estimate_of ~successes ~trials =
  if trials <= 0 then invalid_arg "Reliability.estimate_of: trials must be positive";
  if successes < 0 || successes > trials then
    invalid_arg "Reliability.estimate_of: successes outside [0, trials]";
  let lo, hi = wilson_interval ~successes ~trials in
  { probability = float_of_int successes /. float_of_int trials; lo; hi; trials }

let publish obs ~successes e =
  if Obs.Registry.enabled obs then begin
    Obs.Registry.add (Obs.Registry.counter obs "reliability.successes") successes;
    Obs.Registry.add (Obs.Registry.counter obs "reliability.trials") e.trials;
    Obs.Registry.set (Obs.Registry.gauge obs "reliability.probability") e.probability;
    Obs.Registry.set (Obs.Registry.gauge obs "reliability.lo") e.lo;
    Obs.Registry.set (Obs.Registry.gauge obs "reliability.hi") e.hi
  end

let draw_failures rng ~n ~source ~p alive =
  Array.fill alive 0 n true;
  for v = 0 to n - 1 do
    if v <> source && Prng.float rng 1.0 < p then alive.(v) <- false
  done

(* Trials are cut into fixed-size shards, one splitmix stream per shard
   derived from the root seed by deterministic splitting. The shard
   grid and every shard's stream depend only on (seed, trials) — never
   on the domain count — and successes are an order-independent integer
   sum, so the estimate is bit-identical whether the shards run
   sequentially or fan out over any number of domains. *)
let shard_size = 512

let flood_delivery ?(obs = Obs.Registry.nil) ?pool ~csr ~source ~node_failure_prob ~trials ~seed
    () =
  if trials < 1 then invalid_arg "Reliability.flood_delivery: trials < 1";
  if node_failure_prob < 0.0 || node_failure_prob > 1.0 then
    invalid_arg "Reliability.flood_delivery: probability outside [0,1]";
  let n = Graph_core.Csr.n csr in
  (* The caller's snapshot is shared by every domain; one BFS workspace
     and one alive mask per domain, so the per-trial work stays a
     flat-array BFS with zero allocation. *)
  let nshards = (trials + shard_size - 1) / shard_size in
  let root = Prng.create ~seed in
  let rngs = Array.init nshards (fun _ -> Prng.split root) in
  let per_shard = Array.make nshards 0 in
  let domains = match pool with Some p -> Par.Pool.size p | None -> 1 in
  let scratch =
    Array.init domains (fun _ -> (Graph_core.Bfs.Workspace.create (), Array.make n true))
  in
  let run_shard ~worker s =
    let ws, alive = scratch.(worker) in
    let rng = rngs.(s) in
    let count = min shard_size (trials - (s * shard_size)) in
    let succ = ref 0 in
    for _ = 1 to count do
      draw_failures rng ~n ~source ~p:node_failure_prob alive;
      let r = Sync.flood_csr ~workspace:ws ~alive csr ~source in
      if r.Sync.covers_all_alive then incr succ
    done;
    per_shard.(s) <- !succ
  in
  (match pool with
  | Some p when Par.Pool.size p > 1 -> Par.Pool.parallel_for ~chunk:1 p ~lo:0 ~hi:nshards run_shard
  | _ ->
      for s = 0 to nshards - 1 do
        run_shard ~worker:0 s
      done);
  let successes = Array.fold_left ( + ) 0 per_shard in
  let e = estimate_of ~successes ~trials in
  publish obs ~successes e;
  e

let gossip_delivery ?(obs = Obs.Registry.nil) ~csr ~source ~fanout ~node_failure_prob ~trials
    ~seed () =
  if trials < 1 then invalid_arg "Reliability.gossip_delivery: trials < 1";
  let n = Graph_core.Csr.n csr in
  let rng = Prng.create ~seed in
  let alive = Array.make n true in
  let ttl = Gossip.default_ttl ~n in
  let successes = ref 0 in
  for t = 1 to trials do
    draw_failures rng ~n ~source ~p:node_failure_prob alive;
    let crashed = ref [] in
    Array.iteri (fun v live -> if not live then crashed := v :: !crashed) alive;
    let env = Env.default |> Env.with_crashed !crashed |> Env.with_seed (seed + (7919 * t)) in
    let r = Gossip.run_env ~env ~csr ~source ~fanout ~ttl () in
    if r.Gossip.coverage_of_alive >= 1.0 then incr successes
  done;
  let e = estimate_of ~successes:!successes ~trials in
  publish obs ~successes:!successes e;
  e
