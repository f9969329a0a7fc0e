module Graph = Graph_core.Graph
module Csr = Graph_core.Csr
module Build = Lhg_core.Build

type entry = {
  name : string;
  doc : string;
  admissible : n:int -> k:int -> bool;
  requirement : string;
  build : n:int -> k:int -> seed:int -> (Graph.t, string) result;
  csr : n:int -> k:int -> seed:int -> (Csr.t, string) result;
  direct_csr : bool;
  construction : Build.construction option;
}

(* the frozen form of [iter]'s edge set, never materialising an
   adjacency-set graph — the direct path for families whose edges are
   pure arithmetic *)
let csr_of_edges ~n iter =
  let b = Csr.Builder.create ~n () in
  iter (Csr.Builder.count_edge b);
  Csr.Builder.ready b;
  iter (Csr.Builder.add_edge b);
  Csr.Builder.finish b

let lhg_entry name doc construction =
  {
    name;
    doc;
    admissible =
      (fun ~n ~k -> match Build.build construction ~n ~k with Ok _ -> true | Error _ -> false);
    requirement = "n >= 2k with k >= 2 (JD additionally has parity gaps)";
    build =
      (fun ~n ~k ~seed:_ ->
        match Build.build construction ~n ~k with
        | Ok b -> Ok b.Build.graph
        | Error e -> Error (Build.error_to_string e));
    csr =
      (fun ~n ~k ~seed:_ ->
        match Build.build_csr construction ~n ~k with
        | Ok csr -> Ok csr
        | Error e -> Error (Build.error_to_string e));
    direct_csr = true;
    construction = Some construction;
  }

(* [?edges] gives the family a direct CSR path; entries without one
   freeze the built graph, so [csr] is total either way *)
let plain_entry name doc ~admissible ~requirement ?edges f =
  let build ~n ~k ~seed = if admissible ~n ~k then Ok (f ~n ~k ~seed) else Error requirement in
  let csr =
    match edges with
    | Some iter ->
        fun ~n ~k ~seed:_ ->
          if admissible ~n ~k then Ok (csr_of_edges ~n (iter ~n ~k)) else Error requirement
    | None -> fun ~n ~k ~seed -> Result.map Csr.of_graph (build ~n ~k ~seed)
  in
  { name; doc; admissible; requirement; build; csr; direct_csr = edges <> None; construction = None }

let cycle_edges ~n ~k:_ emit =
  for v = 0 to n - 1 do
    emit v ((v + 1) mod n)
  done

let complete_edges ~n ~k:_ emit =
  for u = 0 to n - 2 do
    for v = u + 1 to n - 1 do
      emit u v
    done
  done

let hypercube_edges ~n ~k:_ emit =
  let d = ref 0 in
  while 1 lsl !d < n do
    incr d
  done;
  for v = 0 to n - 1 do
    for b = 0 to !d - 1 do
      let w = v lxor (1 lsl b) in
      if v < w then emit v w
    done
  done

let all =
  [
    lhg_entry "ktree" "K-TREE construction (Theorem 2)" Build.Ktree;
    lhg_entry "kdiamond" "K-DIAMOND construction, canonical shape (Theorem 5)" Build.Kdiamond;
    lhg_entry "kdiamond_rich" "K-DIAMOND with maximal unshared-leaf groups (the paper's figures)"
      Build.Kdiamond_rich;
    lhg_entry "jd" "Jenkins-Demers operational construction (strict rule)"
      (Build.Jd { strict = true });
    plain_entry "harary" "classic Harary graph H(k, n)"
      ~admissible:(fun ~n ~k -> k >= 2 && k < n)
      ~requirement:"harary needs 2 <= k < n"
      (fun ~n ~k ~seed:_ -> Harary.make ~k ~n);
    plain_entry "hypercube" "k-dimensional hypercube (n = 2^k)"
      ~admissible:(fun ~n ~k -> Hypercube.admissible ~n ~k)
      ~requirement:"hypercube needs n = 2^k" ~edges:hypercube_edges
      (fun ~n:_ ~k ~seed:_ -> Hypercube.make ~dim:k);
    plain_entry "expander" "random k-regular expander"
      ~admissible:(fun ~n ~k -> k mod 2 = 0 && k >= 2 && n > k)
      ~requirement:"expander needs even k >= 2 and n > k"
      (fun ~n ~k ~seed -> Expander.random_regular (Graph_core.Prng.create ~seed) ~n ~degree:k);
    (let admissible ~n ~k = Random_regular.admissible ~n ~k in
     let requirement = "random_regular needs 2 <= k < n with n*k even" in
     let build ~n ~k ~seed =
       if admissible ~n ~k then Random_regular.make (Graph_core.Prng.create ~seed) ~n ~k
       else Error requirement
     in
     {
       name = "random_regular";
       doc = "random k-regular graph (configuration model)";
       admissible;
       requirement;
       build;
       csr = (fun ~n ~k ~seed -> Result.map Csr.of_graph (build ~n ~k ~seed));
       direct_csr = false;
       construction = None;
     });
    plain_entry "cycle" "simple cycle (k ignored)"
      ~admissible:(fun ~n ~k:_ -> n >= 3)
      ~requirement:"cycle needs n >= 3" ~edges:cycle_edges
      (fun ~n ~k:_ ~seed:_ -> Graph_core.Generators.cycle n);
    plain_entry "complete" "complete graph (k ignored)"
      ~admissible:(fun ~n:_ ~k:_ -> true)
      ~requirement:"" ~edges:complete_edges
      (fun ~n ~k:_ ~seed:_ -> Graph_core.Generators.complete n);
  ]

let () =
  let ns = List.map (fun e -> e.name) all in
  if List.length (List.sort_uniq compare ns) <> List.length ns then
    invalid_arg "Topo.Registry: duplicate entry names"

let names = List.map (fun e -> e.name) all

let find name = List.find_opt (fun e -> e.name = name) all

let unknown kind =
  Error (Printf.sprintf "unknown kind %S (expected one of: %s)" kind (String.concat ", " names))

let build_graph ~kind ~n ~k ~seed =
  match find kind with None -> unknown kind | Some e -> e.build ~n ~k ~seed

let build_csr_graph ~kind ~n ~k ~seed () =
  match find kind with None -> unknown kind | Some e -> e.csr ~n ~k ~seed

let witness ~kind ~n ~k =
  match find kind with
  | None | Some { construction = None; _ } -> None
  | Some { construction = Some c; _ } -> (
      match Build.build c ~n ~k with Ok b -> Some b | Error _ -> None)
