(* Tree_pack: edge-disjoint spanning trees out of a frozen CSR.

   The load-bearing properties, per ISSUE 8: every packed tree spans
   all n vertices along real CSR edges, the trees are pairwise
   edge-disjoint (so no vertex spends more than its degree), packing is
   deterministic, and the structured k-connected families yield the
   full ⌊k/2⌋ trees without backoff. *)

open Helpers
module Csr = Graph_core.Csr
module Graph = Graph_core.Graph
module Tree_pack = Graph_core.Tree_pack
module Prng = Graph_core.Prng
module R = Topo.Registry

let csr_of ~kind ~n ~k ~seed =
  match R.build_csr_graph ~kind ~n ~k ~seed () with
  | Ok c -> c
  | Error e -> Alcotest.failf "%s(n=%d,k=%d): %s" kind n k e

(* Walk one tree of a packing and fail on any structural lie: a parent
   edge missing from the CSR, a depth that is not parent-depth + 1, a
   child listing that disagrees with the parent array, or a vertex the
   tree never reaches. Returns the tree's undirected edge set. *)
let check_tree ~ctx csr pack ~tree =
  let n = Tree_pack.n pack in
  let source = Tree_pack.source pack in
  let edges = Hashtbl.create n in
  let reached = ref 1 in
  if Tree_pack.parent pack ~tree source <> -1 then
    Alcotest.failf "%s: tree %d source has a parent" ctx tree;
  for v = 0 to n - 1 do
    let p = Tree_pack.parent pack ~tree v in
    if v <> source then begin
      if p < 0 then Alcotest.failf "%s: tree %d misses vertex %d" ctx tree v;
      if not (Csr.mem_edge csr p v) then
        Alcotest.failf "%s: tree %d edge (%d,%d) not in the graph" ctx tree p v;
      if Tree_pack.depth pack ~tree v <> Tree_pack.depth pack ~tree p + 1 then
        Alcotest.failf "%s: tree %d depth broken at %d" ctx tree v;
      Hashtbl.replace edges (min p v, max p v) ();
      incr reached
    end
  done;
  if !reached <> n then Alcotest.failf "%s: tree %d spans %d/%d" ctx tree !reached n;
  (* the children view must be the exact inverse of the parent view *)
  let listed = ref 0 in
  for v = 0 to n - 1 do
    Tree_pack.iter_children pack ~tree ~node:v (fun ~child ~eidx ->
        incr listed;
        if Tree_pack.parent pack ~tree child <> v then
          Alcotest.failf "%s: tree %d lists %d under %d wrongly" ctx tree child v;
        if eidx <> Csr.edge_index csr v child then
          Alcotest.failf "%s: tree %d eidx wrong for (%d,%d)" ctx tree v child)
  done;
  if !listed <> n - 1 then
    Alcotest.failf "%s: tree %d children list %d <> %d" ctx tree !listed (n - 1);
  edges

let check_pack ~ctx csr pack =
  let count = Tree_pack.count pack in
  let all = Hashtbl.create (Csr.m csr) in
  for t = 0 to count - 1 do
    let edges = check_tree ~ctx csr pack ~tree:t in
    Hashtbl.iter
      (fun e () ->
        if Hashtbl.mem all e then
          Alcotest.failf "%s: edge (%d,%d) in two trees" ctx (fst e) (snd e);
        Hashtbl.replace all e ())
      edges
  done

(* Every registry family: each admissible member yields a packing of
   spanning, pairwise edge-disjoint trees from an arbitrary source. *)
let prop_pack_all_families =
  qcheck ~count:20 "every family: spanning + edge-disjoint + in-graph"
    QCheck2.Gen.(triple (int_range 8 30) (int_range 2 5) (int_bound 10_000))
    (fun (n, k, seed) ->
      List.iter
        (fun e ->
          if e.R.admissible ~n ~k then begin
            let csr = csr_of ~kind:e.R.name ~n ~k ~seed in
            let source = seed mod Csr.n csr in
            let ctx = Printf.sprintf "%s(n=%d,k=%d) src=%d" e.R.name n k source in
            check_pack ~ctx csr (Tree_pack.pack csr ~source)
          end)
        R.all;
      true)

(* Determinism: packing is a pure function of (csr, source, count). *)
let prop_deterministic =
  qcheck ~count:20 "pack is deterministic"
    QCheck2.Gen.(pair (int_range 10 40) (int_bound 1_000))
    (fun (n, seed) ->
      let csr = csr_of ~kind:"kdiamond" ~n ~k:4 ~seed in
      let source = seed mod n in
      let a = Tree_pack.pack csr ~source and b = Tree_pack.pack csr ~source in
      Tree_pack.count a = Tree_pack.count b
      && List.for_all
           (fun t -> Tree_pack.edges a ~tree:t = Tree_pack.edges b ~tree:t)
           (List.init (Tree_pack.count a) Fun.id))

let test_full_count_on_structured () =
  (* the k-connected families admit the full ⌊k/2⌋ trees: no backoff *)
  List.iter
    (fun (kind, n, k) ->
      let csr = csr_of ~kind ~n ~k ~seed:7 in
      let pack = Tree_pack.pack csr ~source:0 in
      check_int (Printf.sprintf "%s(n=%d,k=%d) tree count" kind n k) (k / 2)
        (Tree_pack.count pack);
      check_pack ~ctx:kind csr pack)
    [ ("kdiamond", 66, 4); ("kdiamond", 130, 5); ("hypercube", 64, 6); ("harary", 40, 4) ]

let test_depth_accessors () =
  let csr = csr_of ~kind:"kdiamond" ~n:66 ~k:4 ~seed:7 in
  let pack = Tree_pack.pack csr ~source:0 in
  for t = 0 to Tree_pack.count pack - 1 do
    let maxd = ref 0 in
    for v = 0 to Tree_pack.n pack - 1 do
      maxd := max !maxd (Tree_pack.depth pack ~tree:t v)
    done;
    check_int "max_depth matches depths" !maxd (Tree_pack.max_depth pack ~tree:t)
  done

let test_count_override_and_backoff () =
  let csr = csr_of ~kind:"kdiamond" ~n:66 ~k:4 ~seed:7 in
  check_int "count:1 honoured" 1 (Tree_pack.count (Tree_pack.pack ~count:1 csr ~source:3));
  (* a cycle holds exactly one spanning tree; asking for 3 backs off *)
  let ring = csr_of ~kind:"cycle" ~n:12 ~k:2 ~seed:0 in
  check_int "cycle backs off to 1" 1 (Tree_pack.count (Tree_pack.pack ~count:3 ring ~source:0));
  check_pack ~ctx:"cycle" ring (Tree_pack.pack ~count:3 ring ~source:0)

let test_invalid_inputs () =
  let csr = csr_of ~kind:"kdiamond" ~n:22 ~k:3 ~seed:1 in
  Alcotest.check_raises "source out of range"
    (Invalid_argument "Tree_pack.pack: source out of range") (fun () ->
      ignore (Tree_pack.pack csr ~source:22));
  Alcotest.check_raises "bad count" (Invalid_argument "Tree_pack.pack: count must be >= 1")
    (fun () -> ignore (Tree_pack.pack ~count:0 csr ~source:0));
  let disconnected = Csr.of_graph (Graph.of_edges ~n:4 [ (0, 1); (2, 3) ]) in
  Alcotest.check_raises "disconnected graph"
    (Invalid_argument "Tree_pack.pack: graph is not connected") (fun () ->
      ignore (Tree_pack.pack disconnected ~source:0));
  (* accessors: the flat arrays would read tree 1's slot for vertex 41
     of tree 0 in a two-tree n=40 pack *)
  let p = Tree_pack.pack (csr_of ~kind:"kdiamond" ~n:40 ~k:4 ~seed:3) ~source:0 in
  check_int "two trees" 2 (Tree_pack.count p);
  let raises name msg f = Alcotest.check_raises name (Invalid_argument ("Tree_pack." ^ msg)) f in
  let no_child ~child:_ ~eidx:_ = () in
  raises "parent past n" "parent: vertex out of range" (fun () ->
      ignore (Tree_pack.parent p ~tree:0 41));
  raises "parent below 0" "parent: vertex out of range" (fun () ->
      ignore (Tree_pack.parent p ~tree:1 (-1)));
  raises "parent bad tree" "parent: tree out of range" (fun () ->
      ignore (Tree_pack.parent p ~tree:2 0));
  raises "depth past n" "depth: vertex out of range" (fun () ->
      ignore (Tree_pack.depth p ~tree:0 45));
  raises "depth bad tree" "depth: tree out of range" (fun () ->
      ignore (Tree_pack.depth p ~tree:(-1) 0));
  raises "iter_children past n" "iter_children: vertex out of range" (fun () ->
      Tree_pack.iter_children p ~tree:0 ~node:40 no_child);
  raises "iter_children bad tree" "iter_children: tree out of range" (fun () ->
      Tree_pack.iter_children p ~tree:2 ~node:0 no_child);
  raises "edges bad tree" "edges: tree out of range" (fun () -> ignore (Tree_pack.edges p ~tree:2));
  raises "max_depth bad tree" "max_depth: tree out of range" (fun () ->
      ignore (Tree_pack.max_depth p ~tree:(-1)))

let test_pack_all_matches_pack () =
  let csr = csr_of ~kind:"kdiamond" ~n:66 ~k:4 ~seed:7 in
  let sources = [ 0; 13; 33; 61 ] in
  let seq = Tree_pack.pack_all csr ~sources in
  let pool = Par.Pool.create ~domains:3 in
  let par =
    Fun.protect
      ~finally:(fun () -> Par.Pool.shutdown pool)
      (fun () -> Tree_pack.pack_all ~pool csr ~sources)
  in
  List.iteri
    (fun i s ->
      check_int "source" s (Tree_pack.source seq.(i));
      for t = 0 to Tree_pack.count seq.(i) - 1 do
        check_bool "pool-invariant edges" true
          (Tree_pack.edges seq.(i) ~tree:t = Tree_pack.edges par.(i) ~tree:t)
      done)
    sources

(* Masked-pack validator for the re-stripe properties: every tree
   spans exactly the member set from the source over usable in-graph
   edges, depths are consistent, non-members stay outside, and no
   undirected edge serves two trees. *)
let masked_pack_ok csr p ~member ~usable =
  let n = Tree_pack.n p in
  let source = Tree_pack.source p in
  let ok = ref true in
  let all = Hashtbl.create 64 in
  for t = 0 to Tree_pack.count p - 1 do
    let reached = ref 1 in
    for v = 0 to n - 1 do
      let pa = Tree_pack.parent p ~tree:t v in
      if v = source || not member.(v) then begin
        if pa <> -1 then ok := false
      end
      else if
        pa < 0
        || (not member.(pa))
        || (not (Csr.mem_edge csr pa v))
        || (not (usable (Csr.edge_index csr pa v)))
        || (not (usable (Csr.edge_index csr v pa)))
        || Tree_pack.depth p ~tree:t v <> Tree_pack.depth p ~tree:t pa + 1
      then ok := false
      else begin
        incr reached;
        let e = (min pa v, max pa v) in
        if Hashtbl.mem all e then ok := false else Hashtbl.replace all e ()
      end
    done;
    if !reached <> Tree_pack.members p then ok := false
  done;
  !ok

(* Incremental re-stripe under random epoch-shaped diffs (a few
   leavers, a few dead links): a successful patch is structurally a
   masked pack at the original count — spanning the survivors,
   edge-disjoint, deterministic — and agrees with a fresh masked pack
   on feasibility and tree count; a [None] means the count genuinely
   became infeasible (the fresh pack backs off or the subgraph is
   disconnected). *)
let prop_patch_valid_and_tracks_fresh =
  qcheck ~count:30 "patch: spanning + edge-disjoint + tracks fresh masked pack"
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let rngv = Graph_core.Prng.create ~seed in
      let module Prng = Graph_core.Prng in
      let k = 4 in
      let n = (2 * k) + 6 + Prng.int rngv 40 in
      let csr = csr_of ~kind:"kdiamond" ~n ~k ~seed:(seed land 0xFFF) in
      let source = Prng.int rngv n in
      let base = Tree_pack.pack csr ~source in
      let member = Array.make n true in
      let leavers = Prng.int rngv 3 in
      let placed = ref 0 and tries = ref 0 in
      while !placed < leavers && !tries < 100 do
        incr tries;
        let v = Prng.int rngv n in
        if v <> source && member.(v) then begin
          member.(v) <- false;
          incr placed
        end
      done;
      let edges = ref [] in
      Csr.iter_edges csr (fun u v -> edges := (u, v) :: !edges);
      let edges = Array.of_list !edges in
      let dead = Hashtbl.create 8 in
      for _ = 1 to Prng.int rngv 3 do
        let u, v = edges.(Prng.int rngv (Array.length edges)) in
        Hashtbl.replace dead (Csr.edge_index csr u v) ();
        Hashtbl.replace dead (Csr.edge_index csr v u) ()
      done;
      let usable e = not (Hashtbl.mem dead e) in
      let members = Array.fold_left (fun a b -> if b then a + 1 else a) 0 member in
      match Tree_pack.patch base csr ~member ~usable () with
      | None -> (
          match Tree_pack.pack ~member ~usable csr ~source with
          | fresh -> Tree_pack.count fresh < Tree_pack.count base
          | exception Invalid_argument _ -> true)
      | Some p ->
          let again =
            match Tree_pack.patch base csr ~member ~usable () with
            | Some q -> q
            | None -> Alcotest.fail "patch not deterministic: second run refused"
          in
          let fresh = Tree_pack.pack ~count:(Tree_pack.count base) ~member ~usable csr ~source in
          Tree_pack.count p = Tree_pack.count base
          && Tree_pack.count fresh = Tree_pack.count p
          && Tree_pack.members p = members
          && masked_pack_ok csr p ~member ~usable
          && List.for_all
               (fun t -> Tree_pack.edges p ~tree:t = Tree_pack.edges again ~tree:t)
               (List.init (Tree_pack.count p) Fun.id))

let test_patch_noop_and_errors () =
  let csr = csr_of ~kind:"kdiamond" ~n:40 ~k:4 ~seed:3 in
  let p = Tree_pack.pack csr ~source:2 in
  (* a diff that invalidates nothing returns the pack physically unchanged *)
  (match Tree_pack.patch p csr ~member:(Array.make 40 true) () with
  | Some q -> check_bool "no-op patch is physically the same pack" true (q == p)
  | None -> Alcotest.fail "no-op patch refused");
  let other = csr_of ~kind:"kdiamond" ~n:42 ~k:4 ~seed:3 in
  Alcotest.check_raises "wrong snapshot size"
    (Invalid_argument "Tree_pack.patch: CSR size does not match the pack") (fun () ->
      ignore (Tree_pack.patch p other ()));
  let masked_out = Array.make 40 true in
  masked_out.(2) <- false;
  Alcotest.check_raises "source masked out"
    (Invalid_argument "Tree_pack.patch: source is not a member") (fun () ->
      ignore (Tree_pack.patch p csr ~member:masked_out ()))

(* {2 Golden trees}

   The completion re-hangs only the forest pieces an augmenting path
   moves; its exactness arguments (DESIGN.md, "Incremental
   re-striping") say it makes the same choices as rebuilding every
   forest per path. The digests below — one per tree, over
   [Tree_pack.edges] — were recorded from a rebuild-per-path
   completion and must match exactly: every family at two sizes from
   two sources, masked packs (one backing off to a single tree), and a
   three-epoch patch chain. *)

let tree_digests p =
  List.init (Tree_pack.count p) (fun tree ->
      Tree_pack.edges p ~tree
      |> List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b)
      |> String.concat ";" |> Digest.string |> Digest.to_hex)

let golden_families =
  [
    ("ktree", [ (66, 4); (130, 5) ]);
    ("kdiamond", [ (258, 4); (514, 5) ]);
    ("kdiamond_rich", [ (66, 4); (200, 5) ]);
    ("jd", [ (46, 4); (100, 5) ]);
    ("harary", [ (40, 4); (101, 7) ]);
    ("hypercube", [ (64, 6); (256, 8) ]);
    ("expander", [ (60, 4); (128, 6) ]);
    ("random_regular", [ (60, 4); (101, 6) ]);
    ("cycle", [ (12, 2); (50, 2) ]);
    ("complete", [ (8, 7); (17, 16) ]);
  ]

let edge_array csr =
  let edges = ref [] in
  Csr.iter_edges csr (fun u v -> edges := (u, v) :: !edges);
  Array.of_list (List.rev !edges)

let veto csr vetoed (u, v) =
  Hashtbl.replace vetoed (Csr.edge_index csr u v) ();
  Hashtbl.replace vetoed (Csr.edge_index csr v u) ()

let unveto csr vetoed (u, v) =
  Hashtbl.remove vetoed (Csr.edge_index csr u v);
  Hashtbl.remove vetoed (Csr.edge_index csr v u)

(* [leavers] random non-source vertices out of the member mask and
   [dead] random links vetoed, both drawn from [rng] *)
let random_masks rng csr ~source ~leavers ~dead =
  let n = Csr.n csr in
  let member = Array.make n true in
  let placed = ref 0 in
  while !placed < leavers do
    let v = Prng.int rng n in
    if v <> source && member.(v) then begin
      member.(v) <- false;
      incr placed
    end
  done;
  let links = edge_array csr in
  let vetoed = Hashtbl.create 8 in
  for _ = 1 to dead do
    veto csr vetoed links.(Prng.int rng (Array.length links))
  done;
  (member, vetoed)

let golden_cases () =
  let family =
    List.concat_map
      (fun (kind, sizes) ->
        List.concat_map
          (fun (n, k) ->
            let csr = csr_of ~kind ~n ~k ~seed:7 in
            List.map
              (fun source ->
                (Printf.sprintf "%s n=%d k=%d src=%d" kind n k source, Tree_pack.pack csr ~source))
              [ 0; n / 2 ])
          sizes)
      golden_families
  in
  let masked =
    List.map
      (fun (kind, n, k, source, leavers, dead) ->
        let csr = csr_of ~kind ~n ~k ~seed:7 in
        let member, vetoed =
          random_masks (Prng.create ~seed:(n + source)) csr ~source ~leavers ~dead
        in
        ( Printf.sprintf "%s n=%d k=%d src=%d masked -%dv -%de" kind n k source leavers dead,
          Tree_pack.pack ~member ~usable:(fun e -> not (Hashtbl.mem vetoed e)) csr ~source ))
      [ ("kdiamond", 258, 4, 129, 1, 0); ("kdiamond_rich", 200, 5, 0, 3, 4) ]
  in
  (* every link but one at a random member vetoed: two trees no longer
     fit, so the pack backs off to one *)
  let backoff =
    let n = 130 and source = 65 in
    let csr = csr_of ~kind:"kdiamond" ~n ~k:4 ~seed:7 in
    let rng = Prng.create ~seed:n in
    let member, vetoed = random_masks rng csr ~source ~leavers:1 ~dead:0 in
    let v = ref source in
    while !v = source || not member.(!v) do
      v := Prng.int rng n
    done;
    let nbrs = List.filter (fun w -> member.(w)) (Csr.neighbors csr !v) in
    let kept = List.nth nbrs (Prng.int rng (List.length nbrs)) in
    List.iter (fun w -> if w <> kept then veto csr vetoed (!v, w)) (Csr.neighbors csr !v);
    ( Printf.sprintf "kdiamond n=%d k=4 src=%d masked -1v, %d down to one link" n source !v,
      Tree_pack.pack ~member ~usable:(fun e -> not (Hashtbl.mem vetoed e)) csr ~source )
  in
  (* three patch epochs over one snapshot: leaves, a rejoin, links
     going down and coming back *)
  let chain =
    let n = 1026 and source = 513 in
    let csr = csr_of ~kind:"kdiamond" ~n ~k:4 ~seed:7 in
    let rng = Prng.create ~seed:n in
    let links = edge_array csr in
    let member = Array.make n true and vetoed = Hashtbl.create 8 in
    let leave () =
      let v = ref source in
      while !v = source || not member.(!v) do
        v := Prng.int rng n
      done;
      member.(!v) <- false;
      !v
    in
    let link_down () =
      let l = links.(Prng.int rng (Array.length links)) in
      veto csr vetoed l;
      l
    in
    (* epoch 1: one member leaves; epoch 2: it rejoins as a link goes
       down; epoch 3: the link comes back up as another member leaves *)
    let leaver = leave () in
    let epoch2 () =
      member.(leaver) <- true;
      link_down ()
    in
    let epoch3 link =
      unveto csr vetoed link;
      ignore (leave ())
    in
    let base = Tree_pack.pack csr ~source in
    let step label p =
      let usable e = not (Hashtbl.mem vetoed e) in
      match Tree_pack.patch p csr ~member:(Array.copy member) ~usable () with
      | Some q -> (label, q)
      | None -> Alcotest.failf "%s: patch refused" label
    in
    let e1 = step "kdiamond n=1026 k=4 src=513 patch epoch 1" base in
    let link = epoch2 () in
    let e2 = step "kdiamond n=1026 k=4 src=513 patch epoch 2" (snd e1) in
    epoch3 link;
    let e3 = step "kdiamond n=1026 k=4 src=513 patch epoch 3" (snd e2) in
    [ ("kdiamond n=1026 k=4 src=513", base); e1; e2; e3 ]
  in
  family @ masked @ [ backoff ] @ chain

let golden =
  [
    ( "ktree n=66 k=4 src=0",
      [ "ceb04a034cf906be2cb7060967d1cbd3"; "ece48359659dac1f770b9813a756e381" ] );
    ( "ktree n=66 k=4 src=33",
      [ "fdd864f355a5653f3ee7aabb7732475a"; "8aee0fc69b437d5ce267d2040b372d83" ] );
    ( "ktree n=130 k=5 src=0",
      [ "85deec3de695ab6c55c522c9ceda32d6"; "ca789b1d49fd7d106f2b08206ae5b92d" ] );
    ( "ktree n=130 k=5 src=65",
      [ "a9563223e1f2643c865ed82743373e5a"; "9bd9cc022d616a1b725819cb581001ed" ] );
    ( "kdiamond n=258 k=4 src=0",
      [ "7ab111f60b2958976dfccbf3192a7f7c"; "0f8c2eaf7c7d870960c0dc27c5b47c12" ] );
    ( "kdiamond n=258 k=4 src=129",
      [ "49bdaa1adfdd0c40fbc95bb7d893d387"; "f90b5c3a640f96d6b575dd9f62792aa7" ] );
    ( "kdiamond n=514 k=5 src=0",
      [ "c6e5571f5233b42a7fef9749ea80eb41"; "9e2cb8c3573f7d8e21c60a6bd3a782be" ] );
    ( "kdiamond n=514 k=5 src=257",
      [ "efe975301fd0a40d8b41623de5676889"; "0e003b1789bf8ccfa049eed90ade785d" ] );
    ( "kdiamond_rich n=66 k=4 src=0",
      [ "4c317c7472883a9c9ff2102de5714c9c"; "cd2d4522082da30b3b4c872c30fb41a5" ] );
    ( "kdiamond_rich n=66 k=4 src=33",
      [ "d362a8df34b6f60df80bd179aadcd73b"; "da7650fd1a3c967ad18f7c25f94f24bf" ] );
    ( "kdiamond_rich n=200 k=5 src=0",
      [ "9da83ebd13ea30fbe3ad61a26a0da738"; "673af832f0323db30e3ae6947a913e71" ] );
    ( "kdiamond_rich n=200 k=5 src=100",
      [ "12579939e95522d4ffee4c21ae70e550"; "dc65925556de8f04db3ae4901782b912" ] );
    ( "jd n=46 k=4 src=0",
      [ "0481ddcf65f41ba5dd1b36eac238a856"; "9fd8499d55abe7455300f9d933dc262f" ] );
    ( "jd n=46 k=4 src=23",
      [ "ebedc20aa115559135ed68ec38cfb4db"; "e25134b6513f4ba59a70a5b65cd21dd9" ] );
    ( "jd n=100 k=5 src=0",
      [ "dca62e46b321ef120bd503e18eb6ac04"; "f8c6cbf521cae3411c58cf23ee367f94" ] );
    ( "jd n=100 k=5 src=50",
      [ "a58bdf2f7dfccf13ceec3b045846204d"; "487786302d581e16811437828b7df45a" ] );
    ( "harary n=40 k=4 src=0",
      [ "b53b519098b04c37592c49a5316e69f9"; "ac4710180d04d5970a0f9778ed9e59fd" ] );
    ( "harary n=40 k=4 src=20",
      [ "7750bec927e83e1e7bf7bb1c16960744"; "b22b81fc58432c85e78383f2dbc845d1" ] );
    ( "harary n=101 k=7 src=0",
      [
        "82ab30029cf04d47efc6f9c028d43012";
        "c28f7fb32bc4fec6e6db76f274f495c3";
        "6fc9ce19d658aa773ec0b89270cb13ff";
      ] );
    ( "harary n=101 k=7 src=50",
      [
        "5fba489ee651026d27ee9823c93e83e5";
        "4b90513e67436cf47f5d7678e468eae9";
        "d5e75a5346c9a3533047b698f00c34fc";
      ] );
    ( "hypercube n=64 k=6 src=0",
      [
        "f7ac03185eb87570def3eee332c2fe0b";
        "53fd47d1b4689ec602018c39a41d570b";
        "10daa8cb563bf45cb749e60c7fc20d7e";
      ] );
    ( "hypercube n=64 k=6 src=32",
      [
        "fb55420aebaf87f73152309eff37ec94";
        "ef6fe5b9a2f12dfb1ab6b9186c8d260c";
        "c55e60433a609064ebe0c90c60c0f2a2";
      ] );
    ( "hypercube n=256 k=8 src=0",
      [
        "ce1427df75f47438248e29ce3c467748";
        "d55b31ba81b37dc52ac055bfe8b4226d";
        "a93f6b29d8372a6964aff9d38bdeeae7";
        "d2d6bc2c7e6110a90f53b9e5ce387965";
      ] );
    ( "hypercube n=256 k=8 src=128",
      [
        "51da432728bca27e9ed8f31437fd7364";
        "2ba14eb0c2b8ba608a209b728da0a879";
        "114934d66ddbf82fed71ee73599e58fa";
        "335c88be1e89aa5584eda25c5daf3bb5";
      ] );
    ( "expander n=60 k=4 src=0",
      [ "ae10751721cdd96d510704478f3d5a5a"; "19a7479c54c1237dbd0c428a9ab016fa" ] );
    ( "expander n=60 k=4 src=30",
      [ "72b361e6da086d4609ba293c4062a122"; "be0ffd3988c1041a2288fbc4e811e0fb" ] );
    ( "expander n=128 k=6 src=0",
      [ "96a3a92ad53e5059da9afe1d8a9b9c30"; "93809b77ef39c07a4a8f371130450b8e" ] );
    ( "expander n=128 k=6 src=64",
      [ "fc586ca40ff6ac55eca65cc86bcefb75"; "493b5f80766d8249b2963b3173800edd" ] );
    ( "random_regular n=60 k=4 src=0",
      [ "18b6c103f8374d3f5f6e1c5c62c75789"; "8e0462bf6b625f79761fb1f1d1e32854" ] );
    ( "random_regular n=60 k=4 src=30",
      [ "3cb731d92a0067245b2297be5a2e42e2"; "f47f466a40f84e0ee55a8e06c3190dd7" ] );
    ( "random_regular n=101 k=6 src=0",
      [
        "4105a5e8e212ee1ce9296774849c4a29";
        "f284c1d4628071dc3f47a351a84ee2ea";
        "2748e4bc87b2b8374262419f0110f5f2";
      ] );
    ( "random_regular n=101 k=6 src=50",
      [
        "cd82f682a572eddc3ee307f62fc1c264";
        "ee3ad4722780e410208ab8c6c04b4a14";
        "4c07d43d37e10c90a9c78a46fe38d057";
      ] );
    ( "cycle n=12 k=2 src=0",
      [ "14797165316d34331f5f71c497b40aab" ] );
    ( "cycle n=12 k=2 src=6",
      [ "cca68570575a7bb75d33845632d34e5a" ] );
    ( "cycle n=50 k=2 src=0",
      [ "c551db2e507541c4bbf6f0cd108ba15d" ] );
    ( "cycle n=50 k=2 src=25",
      [ "e8016b62c5a8d045035314b9d99f657a" ] );
    ( "complete n=8 k=7 src=0",
      [
        "a086b0f7c93eb486a88008c29ce4b315";
        "9df4f15aa17e734eb8ce223a08214d93";
        "1d60dbbb79649d7e4778cf971729b652";
      ] );
    ( "complete n=8 k=7 src=4",
      [
        "ea5084f1f58ddbb408128740b61871e2";
        "32201584f98726cb2b64b2320c89a098";
        "f92a414724362f13581c3d05da941e8f";
      ] );
    ( "complete n=17 k=16 src=0",
      [
        "e18e1f90b346c62ec3e412634397c828";
        "64e0b12f59698441c14906998796e327";
        "b83e1672aab7f4686e180e65b16a0ec5";
        "caaf90e1284466801588cc2448c4ce98";
        "96acba2e404189e58df3bacabb52e65e";
        "26d9bcf8318d9dab64a9793f0958e51c";
        "7fe8d6f4b49cce78694ed17f4b5724d7";
        "d0d9d53458da2fcfe79f189b3164b087";
      ] );
    ( "complete n=17 k=16 src=8",
      [
        "56be2e3ad8abd285009b7d2bfb9a46be";
        "f5b5148835653a1df2dee0e9c59adb10";
        "c5bc9b8bb05be205125e4e486f8f20c5";
        "53ed03f8170eb46d36dea0fd7975e6ec";
        "d8067bc5ea20578f88b646427080af64";
        "7430c10c1a334a22350a5f35772c7d22";
        "5d9e0c029dff39070c75352bb20b8fba";
        "132251a4b8466b55aa1bd2c607c5cb1e";
      ] );
    ( "kdiamond n=258 k=4 src=129 masked -1v -0e",
      [ "1290aef778a33419c194a9b27061dd9e"; "79406f67860331fc37ee41c08aa23df3" ] );
    ( "kdiamond_rich n=200 k=5 src=0 masked -3v -4e",
      [ "d940c9cb4f9295356c1ac9ee8f1e89f9"; "0600c896620840e5cd94062d47647d70" ] );
    ( "kdiamond n=130 k=4 src=65 masked -1v, 62 down to one link",
      [ "62fe675d0660583158043e398bdcc394" ] );
    ( "kdiamond n=1026 k=4 src=513",
      [ "b6f31fd3132adf42e468d41989bf611a"; "648af3f23896f438ac9cb993356d697b" ] );
    ( "kdiamond n=1026 k=4 src=513 patch epoch 1",
      [ "7222bbf7f3396cbbd1ccf67adce3818b"; "b38d4a92e9023a6a9106401b197794ca" ] );
    ( "kdiamond n=1026 k=4 src=513 patch epoch 2",
      [ "118efe8501c77ef38041aa4380f4e009"; "df3862ed8c2177be42f57741d71b3f52" ] );
    ( "kdiamond n=1026 k=4 src=513 patch epoch 3",
      [ "d2d02d42fecafb720c093c3166882f02"; "48fd66d4dcc6d68e1dc1bf81d3045a9e" ] );
  ]

let test_golden_trees () =
  let cases = golden_cases () in
  Alcotest.(check (list string)) "case labels" (List.map fst golden) (List.map fst cases);
  List.iter2
    (fun (label, want) (_, p) -> Alcotest.(check (list string)) label want (tree_digests p))
    golden cases

(* {2 Large-n tier}

   The size the benchmark packs at, from a middle source: the full
   structural check on a fresh pack, then one leave plus one dead link
   re-striped by [patch] and compared with a fresh masked pack. kdiamond
   at k = 4 has m − 2(n − 1) = 4 spare edges, all in its degree-5 core,
   so the dead link sits there; anywhere else two trees stop fitting. *)
let test_large_pack_and_patch () =
  let n = 4098 and source = 2049 in
  let csr = csr_of ~kind:"kdiamond" ~n ~k:4 ~seed:7 in
  let p = Tree_pack.pack csr ~source in
  check_int "two trees" 2 (Tree_pack.count p);
  check_pack ~ctx:"kdiamond n=4098" csr p;
  let member = Array.make n true in
  member.(17) <- false;
  let hub =
    let v = ref 0 in
    while Csr.degree csr !v < 5 do
      incr v
    done;
    !v
  in
  let vetoed = Hashtbl.create 2 in
  veto csr vetoed (hub, List.fold_left max hub (Csr.neighbors csr hub));
  let usable e = not (Hashtbl.mem vetoed e) in
  let fresh = Tree_pack.pack ~member ~usable csr ~source in
  check_bool "fresh masked pack valid" true (masked_pack_ok csr fresh ~member ~usable);
  match Tree_pack.patch p csr ~member ~usable () with
  | None -> Alcotest.fail "patch refused a feasible diff"
  | Some q ->
      check_int "patch keeps both trees" (Tree_pack.count fresh) (Tree_pack.count q);
      check_int "patch spans the members" (n - 1) (Tree_pack.members q);
      check_bool "patched pack valid" true (masked_pack_ok csr q ~member ~usable)

let suite =
  [
    prop_pack_all_families;
    prop_deterministic;
    Alcotest.test_case "structured families give ⌊k/2⌋ trees" `Quick test_full_count_on_structured;
    Alcotest.test_case "depth accessors agree" `Quick test_depth_accessors;
    Alcotest.test_case "count override + backoff" `Quick test_count_override_and_backoff;
    Alcotest.test_case "invalid inputs raise" `Quick test_invalid_inputs;
    Alcotest.test_case "pack_all: pool-invariant" `Quick test_pack_all_matches_pack;
    prop_patch_valid_and_tracks_fresh;
    Alcotest.test_case "patch: no-op + errors" `Quick test_patch_noop_and_errors;
    Alcotest.test_case "golden trees: pack + patch digests" `Quick test_golden_trees;
    Alcotest.test_case "n=4098: pack + patch tracks fresh" `Slow test_large_pack_and_patch;
  ]
