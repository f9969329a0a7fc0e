module Csr = Graph_core.Csr
module Prng = Graph_core.Prng
module Connectivity = Graph_core.Connectivity

type adversary = Min_vertex_cut | Min_edge_cut | High_degree | Random_static | Random_dynamic

let all = [ Min_vertex_cut; Min_edge_cut; High_degree; Random_static; Random_dynamic ]

let to_string = function
  | Min_vertex_cut -> "min-cut"
  | Min_edge_cut -> "min-edge-cut"
  | High_degree -> "high-degree"
  | Random_static -> "random"
  | Random_dynamic -> "dynamic"

let of_string = function
  | "min-cut" -> Ok Min_vertex_cut
  | "min-edge-cut" -> Ok Min_edge_cut
  | "high-degree" -> Ok High_degree
  | "random" -> Ok Random_static
  | "dynamic" -> Ok Random_dynamic
  | s ->
      Error
        (Printf.sprintf "unknown adversary %S (expected %s)" s
           (String.concat ", " (List.map to_string all)))

let crash_plan ~at victims =
  Plan.make (List.map (fun v -> { Plan.at; event = Plan.Crash v }) victims)

let link_plan ~at links =
  Plan.make (List.map (fun (u, v) -> { Plan.at; event = Plan.Link_down (u, v) }) links)

let sample rng pool k =
  Prng.sample_without_replacement rng ~k ~n:(Array.length pool) |> List.map (fun i -> pool.(i))

(* highest degree first, ties by index — the padding order for every
   vertex pool *)
let degree_desc csr vs =
  List.stable_sort (fun a b -> compare (Csr.degree csr b, a) (Csr.degree csr a, b)) vs

(* [first] (adversary's primary targets, in their given order) followed
   by every other non-source vertex in degree-descending order *)
let vertex_pool csr ~source ~first =
  let n = Csr.n csr in
  let first = List.filter (fun v -> v <> source) first in
  let in_first = Array.make n false in
  List.iter (fun v -> in_first.(v) <- true) first;
  let rest =
    List.init n Fun.id
    |> List.filter (fun v -> v <> source && not in_first.(v))
    |> degree_desc csr
  in
  (Array.of_list (first @ rest), List.length first)

(* [first] edges followed by every other edge in lexicographic order *)
let edge_pool csr ~first =
  let norm (u, v) = if u <= v then (u, v) else (v, u) in
  let first = List.map norm first in
  let seen = Hashtbl.create 16 in
  List.iter (fun e -> Hashtbl.replace seen e ()) first;
  let rest = ref [] in
  Csr.iter_edges csr (fun u v -> if not (Hashtbl.mem seen (u, v)) then rest := (u, v) :: !rest);
  (Array.of_list (first @ List.rev !rest), List.length first)

(* one level-f batch per fault budget: the deterministic pool prefix
   (when [use_prefix]) plus random subsets from a window that stays
   focused around the primary targets *)
let budget_sweep ~plans_per_level ~rng ~pool ~focus ~max_faults ~use_prefix ~plan_of =
  let npool = Array.length pool in
  let plans = ref [ Plan.empty ] in
  for f = 1 to max_faults do
    let f' = min f npool in
    if f' > 0 then begin
      if use_prefix then plans := plan_of (Array.to_list (Array.sub pool 0 f')) :: !plans;
      let window = min npool (max (2 * f') focus) in
      let windowed = Array.sub pool 0 window in
      let randoms = plans_per_level - if use_prefix then 1 else 0 in
      for _ = 1 to randoms do
        plans := plan_of (sample rng windowed f') :: !plans
      done
    end
  done;
  List.rev !plans

let dynamic_plan ~rng ~vpool ~epool f =
  let c = min (Prng.int rng (f + 1)) (Array.length vpool) in
  let l = min (f - c) (Array.length epool) in
  let c = min (Array.length vpool) (c + (f - c - l)) in
  let events = ref [] in
  let add at event = events := { Plan.at; event } :: !events in
  List.iter
    (fun v ->
      let t0 = Prng.float rng 4.0 in
      add t0 (Plan.Crash v);
      if Prng.bool rng then add (t0 +. 0.5 +. Prng.float rng 4.0) (Plan.Recover v))
    (sample rng vpool c);
  List.iter
    (fun (u, v) ->
      let t0 = Prng.float rng 4.0 in
      add t0 (Plan.Link_down (u, v));
      if Prng.bool rng then add (t0 +. 0.5 +. Prng.float rng 4.0) (Plan.Link_up (u, v)))
    (sample rng epool l);
  if Prng.int rng 4 = 0 then add (9.0 +. Prng.float rng 2.0) Plan.Heal;
  Plan.make !events

type aimed = {
  csr : Csr.t;
  adversary : adversary;
  cut_nodes : int list;
  cut_links : (int * int) list;
}

let aim csr adversary =
  let cut_nodes = if adversary = Min_vertex_cut then Connectivity.min_vertex_cut csr else [] in
  let cut_links = if adversary = Min_edge_cut then Connectivity.min_edge_cut csr else [] in
  { csr; adversary; cut_nodes; cut_links }

let targets a = a.cut_nodes @ List.concat_map (fun (u, v) -> [ u; v ]) a.cut_links

let sweep ?(plans_per_level = 3) ?(at = 0.0) ~rng ~source ~max_faults aimed =
  let csr = aimed.csr in
  if max_faults < 0 then invalid_arg "Gen.sweep: max_faults < 0";
  if plans_per_level < 1 then invalid_arg "Gen.sweep: plans_per_level < 1";
  match aimed.adversary with
  | Min_vertex_cut ->
      let pool, focus = vertex_pool csr ~source ~first:aimed.cut_nodes in
      budget_sweep ~plans_per_level ~rng ~pool ~focus ~max_faults ~use_prefix:true
        ~plan_of:(crash_plan ~at)
  | High_degree ->
      let pool, _ = vertex_pool csr ~source ~first:[] in
      budget_sweep ~plans_per_level ~rng ~pool ~focus:0 ~max_faults ~use_prefix:true
        ~plan_of:(crash_plan ~at)
  | Random_static ->
      let pool, _ = vertex_pool csr ~source ~first:[] in
      budget_sweep ~plans_per_level ~rng ~pool ~focus:(Array.length pool) ~max_faults
        ~use_prefix:false ~plan_of:(crash_plan ~at)
  | Min_edge_cut ->
      let pool, focus = edge_pool csr ~first:aimed.cut_links in
      budget_sweep ~plans_per_level ~rng ~pool ~focus ~max_faults ~use_prefix:true
        ~plan_of:(link_plan ~at)
  | Random_dynamic ->
      let vpool, _ = vertex_pool csr ~source ~first:[] in
      let epool, _ = edge_pool csr ~first:[] in
      let plans = ref [ Plan.empty ] in
      for f = 1 to max_faults do
        for _ = 1 to plans_per_level do
          plans := dynamic_plan ~rng ~vpool ~epool f :: !plans
        done
      done;
      List.rev !plans
