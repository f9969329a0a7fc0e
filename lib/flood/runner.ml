module Csr = Graph_core.Csr
module Prng = Graph_core.Prng

type aggregate = {
  trials : int;
  mean_coverage : float;
  min_coverage : float;
  all_covered_fraction : float;
  mean_messages : float;
  mean_completion : float;
  mean_max_hops : float;
  p50_completion : float;
  p95_completion : float;
  p99_completion : float;
  hop_counts : int array;
}

let random_crashes rng ~n ~count ~avoid =
  if count < 0 || count > n - 1 then invalid_arg "Runner.random_crashes: bad count";
  (* Sample from n-1 slots, skipping [avoid] by shifting. *)
  Prng.sample_without_replacement rng ~k:count ~n:(n - 1)
  |> List.map (fun v -> if v >= avoid then v + 1 else v)

let random_link_failures rng csr ~count =
  let m = Csr.m csr in
  if count < 0 || count > m then invalid_arg "Runner.random_link_failures: bad count";
  let picks = Prng.sample_without_replacement rng ~k:count ~n:m in
  (* one walk of the edge enumeration resolves every picked position,
     without materialising the m-edge list *)
  let edge_at = Hashtbl.create (max 1 count) in
  List.iter (fun i -> Hashtbl.replace edge_at i (-1, -1)) picks;
  if count > 0 then begin
    let i = ref 0 in
    Csr.iter_edges csr (fun u v ->
        if Hashtbl.mem edge_at !i then Hashtbl.replace edge_at !i (u, v);
        incr i)
  end;
  List.map (Hashtbl.find edge_at) picks

let coverage_of ~delivered ~crashed ~n =
  let is_crashed = Array.make n false in
  List.iter (fun v -> is_crashed.(v) <- true) crashed;
  let alive = ref 0 and covered = ref 0 in
  for v = 0 to n - 1 do
    if not is_crashed.(v) then begin
      incr alive;
      if delivered.(v) then incr covered
    end
  done;
  float_of_int !covered /. float_of_int (max 1 !alive)

(* Exact percentile by selection: the sample of rank [max 1 ⌈q·len⌉]
   in ascending order, found with a three-way quickselect that permutes
   [a.(0 .. len-1)] in place. Heavy ties cost nothing extra: a pivot's
   whole run of equal values leaves the search in one pass. Pivots come
   from a fixed-seed generator, so the expected cost is O(len) on any
   input and the reordering is deterministic. *)
let percentile a ~len q =
  if len < 0 || len > Array.length a then invalid_arg "Runner.percentile: len outside the array";
  if len = 0 then 0.0
  else begin
    let k = min (len - 1) (max 1 (int_of_float (ceil (q *. float_of_int len))) - 1) in
    let lo = ref 0 and hi = ref len and rng = ref len in
    (* invariant: a.(0 .. lo-1) <= a.(lo .. hi-1) <= a.(hi .. len-1), k in [lo, hi) *)
    while !hi - !lo > 1 do
      rng := (!rng * 0x5DEECE66D) + 11;
      let v = a.(!lo + ((!rng lsr 17) mod (!hi - !lo))) in
      (* a.(lo .. lt-1) < v, a.(lt .. i-1) = v, a.(gt+1 .. hi-1) > v *)
      let lt = ref !lo and i = ref !lo and gt = ref (!hi - 1) in
      while !i <= !gt do
        let x = Array.unsafe_get a !i in
        if x < v then begin
          Array.unsafe_set a !i (Array.unsafe_get a !lt);
          Array.unsafe_set a !lt x;
          incr lt;
          incr i
        end
        else if x > v then begin
          Array.unsafe_set a !i (Array.unsafe_get a !gt);
          Array.unsafe_set a !gt x;
          decr gt
        end
        else incr i
      done;
      if k < !lt then hi := !lt
      else if k > !gt then lo := !gt + 1
      else begin
        lo := k;
        hi := k + 1
      end
    done;
    a.(k)
  end

(* Per-trial hop histograms accumulate in [obs] under "flood.hops"
   (linear buckets: index = hop count); flatten the prefix up to the
   last non-empty bucket into a plain array. *)
let hop_counts_of_registry obs =
  if not (Obs.Registry.enabled obs) then [||]
  else
    match Obs.Registry.find_histogram obs "flood.hops" with
    | None -> [||]
    | Some h ->
        let counts = Obs.Registry.histogram_counts h in
        let last = ref (-1) in
        (* drop the overflow bucket: hops beyond the bounds are absent
           on any graph these trials run on *)
        for i = 0 to Array.length counts - 2 do
          if counts.(i) > 0 then last := i
        done;
        Array.init (!last + 1) (fun i -> counts.(i))

let aggregate_of ~obs results =
  let trials = List.length results in
  let ft = float_of_int trials in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 results in
  let covs = List.map (fun (c, _, _, _) -> c) results in
  let completions = Array.of_list (List.map (fun (_, _, t, _) -> t) results) in
  let len = Array.length completions in
  {
    trials;
    mean_coverage = sum (fun (c, _, _, _) -> c) /. ft;
    min_coverage = List.fold_left min 1.0 covs;
    all_covered_fraction =
      float_of_int (List.length (List.filter (fun c -> c >= 1.0) covs)) /. ft;
    mean_messages = sum (fun (_, m, _, _) -> float_of_int m) /. ft;
    mean_completion = sum (fun (_, _, t, _) -> t) /. ft;
    mean_max_hops = sum (fun (_, _, _, h) -> float_of_int h) /. ft;
    p50_completion = percentile completions ~len 0.50;
    p95_completion = percentile completions ~len 0.95;
    p99_completion = percentile completions ~len 0.99;
    hop_counts = hop_counts_of_registry obs;
  }

let publish_aggregate obs a =
  if Obs.Registry.enabled obs then begin
    Obs.Registry.add (Obs.Registry.counter obs "runner.trials") a.trials;
    Obs.Registry.set (Obs.Registry.gauge obs "runner.mean_coverage") a.mean_coverage;
    Obs.Registry.set (Obs.Registry.gauge obs "runner.all_covered_fraction") a.all_covered_fraction;
    Obs.Registry.set (Obs.Registry.gauge obs "runner.p50_completion") a.p50_completion;
    Obs.Registry.set (Obs.Registry.gauge obs "runner.p95_completion") a.p95_completion;
    Obs.Registry.set (Obs.Registry.gauge obs "runner.p99_completion") a.p99_completion
  end

let flood_trials_env ?(link_failures = 0) ~env ~csr ~source ~crash_count ~trials () =
  if trials < 1 then invalid_arg "Runner.flood_trials: trials < 1";
  let seed = Env.seed_value env in
  let obs = env.Env.obs in
  let rng = Prng.create ~seed in
  let n = Csr.n csr in
  let h_completion =
    Obs.Registry.histogram obs "runner.completion" ~bounds:Obs.Registry.time_bounds
  in
  let results =
    List.init trials (fun t ->
        let crashed = random_crashes rng ~n ~count:crash_count ~avoid:source in
        let failed_links =
          if link_failures = 0 then [] else random_link_failures rng csr ~count:link_failures
        in
        let trial_env =
          env
          |> Env.with_crashed crashed
          |> Env.with_failed_links failed_links
          |> Env.with_seed (seed + (1000 * t))
          |> Env.with_obs obs
        in
        let r = Flooding.run_csr_env ~env:trial_env ~csr ~source () in
        Obs.Registry.observe h_completion r.Flooding.completion_time;
        ( coverage_of ~delivered:r.Flooding.delivered ~crashed ~n,
          r.Flooding.messages_sent,
          r.Flooding.completion_time,
          r.Flooding.max_hops ))
  in
  let a = aggregate_of ~obs results in
  publish_aggregate obs a;
  a

let gossip_trials_env ~env ~csr ~source ~fanout ~crash_count ~trials () =
  if trials < 1 then invalid_arg "Runner.gossip_trials: trials < 1";
  let seed = Env.seed_value env in
  let obs = env.Env.obs in
  let rng = Prng.create ~seed in
  let n = Csr.n csr in
  let ttl = Gossip.default_ttl ~n in
  let h_completion =
    Obs.Registry.histogram obs "runner.completion" ~bounds:Obs.Registry.time_bounds
  in
  let results =
    List.init trials (fun t ->
        let crashed = random_crashes rng ~n ~count:crash_count ~avoid:source in
        let trial_env =
          env |> Env.with_crashed crashed |> Env.with_seed (seed + (1000 * t)) |> Env.with_obs obs
        in
        let r = Gossip.run_env ~env:trial_env ~csr ~source ~fanout ~ttl () in
        Obs.Registry.observe h_completion r.Gossip.completion_time;
        ( coverage_of ~delivered:r.Gossip.delivered ~crashed ~n,
          r.Gossip.messages_sent,
          r.Gossip.completion_time,
          0 ))
  in
  let a = aggregate_of ~obs results in
  publish_aggregate obs a;
  a
