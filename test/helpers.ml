(* Shared fixtures and Alcotest testables for the whole suite. *)

module Graph = Graph_core.Graph

let graph_testable = Alcotest.testable Graph.pp Graph.equal

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_int_opt = Alcotest.(check (option int))

(* A deterministic RNG per test site; vary [salt] to decorrelate. *)
let rng ?(salt = 0) () = Graph_core.Prng.create ~seed:(0xBEEF + salt)

(* Sorted edge list for structural comparisons. *)
let sorted_edges g = List.sort compare (Graph.edges g)

(* The 4-cycle with a chord: a tiny non-regular 2-connected fixture. *)
let house () = Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0); (0, 2) ]

(* Two triangles joined by a single bridge edge 2-3. *)
let barbell () =
  Graph.of_edges ~n:6 [ (0, 1); (1, 2); (0, 2); (3, 4); (4, 5); (3, 5); (2, 3) ]

(* Petersen graph: 3-regular, 3-connected, girth 5 — a classic stress
   fixture for connectivity code. *)
let petersen () =
  Graph.of_edges ~n:10
    [
      (0, 1); (1, 2); (2, 3); (3, 4); (4, 0);
      (5, 7); (7, 9); (9, 6); (6, 8); (8, 5);
      (0, 5); (1, 6); (2, 7); (3, 8); (4, 9);
    ]

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Every Topo.Registry family admissible at (n, k), as (name, graph);
   the hypercube is taken at its own size 2^k. *)
let registry_graphs ~n ~k ~seed =
  List.filter_map
    (fun (e : Topo.Registry.entry) ->
      let n = if e.Topo.Registry.name = "hypercube" then 1 lsl k else n in
      match e.Topo.Registry.build ~n ~k ~seed with
      | Ok g -> Some (e.Topo.Registry.name, g)
      | Error _ -> None)
    Topo.Registry.all

(* A copy of [g] with [count] uniformly drawn edges deleted, one at a
   time. *)
let without_random_edges rng g count =
  let g = Graph.copy g in
  for _ = 1 to count do
    let edges = Array.of_list (Graph.edges g) in
    if Array.length edges > 0 then begin
      let u, v = edges.(Graph_core.Prng.int rng (Array.length edges)) in
      Graph.remove_edge g u v
    end
  done;
  g
