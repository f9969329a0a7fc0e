(* Self-assembly: the distributed construction protocol of ISSUE 9.

   The load-bearing properties: crash-free assembly converges to a
   graph the independent verifier accepts and that matches the target
   construction edge-for-edge; up to k - 1 mid-assembly crashes are
   detected by timeout and survivors re-converge without a restart;
   and the whole thing — including the parallel audit — is
   byte-deterministic across engines and pool sizes. *)

open Helpers
module Run = Assemble.Run
module Audit = Assemble.Audit
module Env = Flood.Env
module Build = Lhg_core.Build
module Graph = Graph_core.Graph

let assemble ?plan ?(seed = 1) ?(engine = Netsim.Sim.Calendar) ~n ~k () =
  let env = Env.default |> Env.with_seed seed |> Env.with_engine engine in
  Run.run ~env ?plan ~construction:Build.Kdiamond ~n ~k ()

(* staggered crash plan: victim j dies one gossip round after victim
   j - 1, all of them mid-assembly *)
let crash_plan victims =
  let period = Run.default_params.Run.period in
  Chaos.Plan.make
    (List.mapi
       (fun j v -> { Chaos.Plan.at = period *. float_of_int (j + 1); event = Chaos.Plan.Crash v })
       victims)

let test_crash_free_converges () =
  let r = assemble ~n:46 ~k:4 () in
  check_bool "converged" true r.Run.converged;
  check_bool "verified" true r.Run.verified;
  check_bool "matches target" true r.Run.matches_target;
  check_bool "not capped" true (not r.Run.capped);
  check_int "nobody died" 0 r.Run.deaths_declared;
  check_int "nobody retired" 0 (Array.length r.Run.retired);
  check_int "all 46 are members" 46 (Array.length r.Run.final_members);
  match r.Run.realized with
  | None -> Alcotest.fail "converged run must expose the realized graph"
  | Some g ->
      check_int "realized on all nodes" 46 (Graph.n g);
      check_bool "independent Verify.quick accepts" true (Lhg_core.Verify.quick g ~k:4)

(* the qcheck property of the issue: any admissible size, any seed —
   crash-free assembly ends in a Verify.quick-accepted graph *)
let prop_crash_free_assembly =
  qcheck ~count:15 "crash-free assembly converges to a verified LHG"
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 8 80))
    (fun (seed, n) ->
      match Build.build Build.Kdiamond ~n ~k:3 with
      | Error _ -> true (* inadmissible size: nothing to assemble *)
      | Ok _ -> (
          let r = assemble ~seed ~n ~k:3 () in
          r.Run.converged && r.Run.verified && r.Run.matches_target
          &&
          match r.Run.realized with
          | Some g -> Lhg_core.Verify.quick g ~k:3
          | None -> false))

(* k - 1 = 3 staggered mid-assembly crashes: timeouts declare the
   silent nodes dead, the death set gossips, survivors re-elect slots
   over the reduced electorate and still land on a valid LHG *)
let test_reconverges_after_crashes () =
  List.iter
    (fun victims ->
      let r = assemble ~plan:(crash_plan victims) ~n:46 ~k:4 () in
      let tag = String.concat "," (List.map string_of_int victims) in
      check_bool (tag ^ ": converged") true r.Run.converged;
      check_bool (tag ^ ": verified") true r.Run.verified;
      check_bool (tag ^ ": matches target") true r.Run.matches_target;
      Alcotest.(check (list int))
        (tag ^ ": retired = victims")
        (List.sort compare victims)
        (Array.to_list r.Run.retired |> List.sort compare);
      check_int
        (tag ^ ": survivors are the members")
        (46 - List.length victims)
        (Array.length r.Run.final_members);
      check_bool (tag ^ ": deaths were declared") true (r.Run.deaths_declared > 0);
      check_bool (tag ^ ": someone unfroze to repair") true (r.Run.unfreezes > 0))
    [ [ 7 ]; [ 3; 30 ]; [ 3; 17; 30 ] ]

(* determinism: the lhg-assemble/1 document is byte-identical across
   engines, with and without chaos *)
let test_engine_byte_identity () =
  List.iter
    (fun plan ->
      let doc engine = Run.to_json (assemble ?plan ~engine ~n:46 ~k:4 ()) in
      Alcotest.(check string)
        "calendar = heap"
        (doc Netsim.Sim.Calendar) (doc Netsim.Sim.Heap))
    [ None; Some (crash_plan [ 3; 17; 30 ]) ]

(* the audit fans configs out over the pool; output must not depend on
   how many domains ran it *)
let test_audit_pool_identity () =
  let audit_doc pool =
    let env = Env.default |> Env.with_seed 5 |> Env.with_pool pool in
    Audit.to_json
      (Audit.run ~env ~construction:Build.Kdiamond ~k:4 ~sizes:[ 10; 46 ] ~recovery_n:46
         ~max_faults:3 ())
  in
  let sequential = audit_doc None in
  List.iter
    (fun domains ->
      let pool = Par.Pool.create ~domains in
      let doc =
        Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) (fun () -> audit_doc (Some pool))
      in
      Alcotest.(check string)
        (Printf.sprintf "1 domain = %d domains" domains)
        sequential doc)
    [ 2; 4 ]

let test_audit_verdict () =
  let env = Env.default |> Env.with_seed 5 in
  let a =
    Audit.run ~env ~construction:Build.Kdiamond ~k:4 ~sizes:[ 10; 46 ] ~recovery_n:46
      ~max_faults:3 ()
  in
  check_bool "all configs ok" true a.Audit.all_ok;
  check_int "one sweep row per size" 2 (List.length a.Audit.sweep);
  check_int "recovery rows 0..max_faults" 4 (List.length a.Audit.recovery);
  List.iter
    (fun (r : Audit.report) ->
      check_int ("recovery victims at f = " ^ string_of_int r.Audit.faults) r.Audit.faults
        (List.length r.Audit.victims))
    a.Audit.recovery

let test_rejects_bad_arguments () =
  Alcotest.check_raises "n too small"
    (Invalid_argument "Assemble.run: n must be >= 2") (fun () ->
      ignore (assemble ~n:1 ~k:4 ()));
  Alcotest.check_raises "audit beyond the guarantee"
    (Invalid_argument "Assemble.Audit.run: max_faults must stay inside the k-1 boundary")
    (fun () ->
      ignore
        (Audit.run ~env:Env.default ~construction:Build.Kdiamond ~k:4 ~sizes:[ 10 ]
           ~recovery_n:46 ~max_faults:4 ()))

(* EXPERIMENTS.md B9, the O(log n) self-assembly claim at seed 1:
   crash-free assembly up to n = 1026 converges, verifies and matches
   the target within 3 * ceil(log2 n) rounds, and at n = 46 every
   fault count up to k - 1 = 3 is detected and repaired. *)
let test_b9_rounds_within_c_log_n () =
  let env = Env.default |> Env.with_seed 1 in
  let a =
    Audit.run ~env ~construction:Build.Kdiamond ~k:4 ~sizes:[ 10; 46; 100; 258; 1026 ]
      ~recovery_n:46 ~max_faults:3 ()
  in
  check_bool "all configs ok" true a.Audit.all_ok;
  let ceil_log2 n =
    let rec go b = if 1 lsl b >= n then b else go (b + 1) in
    go 0
  in
  Alcotest.(check (list int))
    "sweep sizes" [ 10; 46; 100; 258; 1026 ]
    (List.map (fun (r : Audit.report) -> r.Audit.n) a.Audit.sweep);
  List.iter
    (fun (r : Audit.report) ->
      let tag = Printf.sprintf "n = %d" r.Audit.n in
      check_bool (tag ^ ": converged") true r.Audit.converged;
      check_bool (tag ^ ": verified") true r.Audit.verified;
      check_bool (tag ^ ": matches target") true r.Audit.matches_target;
      check_bool
        (Printf.sprintf "%s: %d rounds <= 3 * %d (%d messages)" tag r.Audit.rounds
           (ceil_log2 r.Audit.n) r.Audit.messages)
        true
        (r.Audit.rounds <= 3 * ceil_log2 r.Audit.n))
    a.Audit.sweep;
  Alcotest.(check (list int))
    "recovery fault counts" [ 0; 1; 2; 3 ]
    (List.map (fun (r : Audit.report) -> r.Audit.faults) a.Audit.recovery);
  List.iter
    (fun (r : Audit.report) ->
      let tag = Printf.sprintf "f = %d" r.Audit.faults in
      check_bool
        (Printf.sprintf "%s, victims [%s]: %d rounds, %d deaths, %d unfreezes, converged, verified"
           tag
           (String.concat "; " (List.map string_of_int r.Audit.victims))
           r.Audit.rounds r.Audit.deaths_declared r.Audit.unfreezes)
        true
        (r.Audit.converged && r.Audit.verified);
      check_int (tag ^ ": victims = faults") r.Audit.faults (List.length r.Audit.victims);
      if r.Audit.faults > 0 then
        check_bool (tag ^ ": deaths declared") true (r.Audit.deaths_declared > 0))
    a.Audit.recovery

(* The bitset View against the sorted-array reference model
   (view_ref.ml): random sequences of make, bootstrap, merge, add_dead,
   Pool.intern and Pool.merge_refs over ids 0..300, so views span up to
   five 62-id words and end at different trimmed lengths. Every view
   either side produces must read the same, and both pools must hand
   out the same refs in the same order. *)
module View = Assemble.View

type view_op =
  | Make of int list * int list
  | Bootstrap of int * int
  | Merge of int * int  (** two earlier views, by index *)
  | Add_dead of int * int list * int list  (** view, raw ids, live ranks *)
  | Intern of int
  | Merge_refs of int * int  (** two earlier refs, by index *)

let pp_view_op =
  let ints l = "[" ^ String.concat ";" (List.map string_of_int l) ^ "]" in
  function
  | Make (m, d) -> Printf.sprintf "make %s %s" (ints m) (ints d)
  | Bootstrap (s, c) -> Printf.sprintf "bootstrap %d %d" s c
  | Merge (i, j) -> Printf.sprintf "merge v%d v%d" i j
  | Add_dead (i, ids, ranks) -> Printf.sprintf "add_dead v%d %s ranks %s" i (ints ids) (ints ranks)
  | Intern i -> Printf.sprintf "intern v%d" i
  | Merge_refs (a, b) -> Printf.sprintf "merge_refs r%d r%d" a b

let gen_view_op =
  let open QCheck2.Gen in
  let id = int_bound 300 in
  let ids = list_size (int_bound 12) id in
  let idx = int_bound 1_000 in
  frequency
    [
      ( 3,
        map3
          (fun m d third -> Make (m, d @ List.filteri (fun i _ -> i mod 3 = third) m))
          ids ids (int_bound 3) );
      (1, map2 (fun s c -> Bootstrap (s, c)) id id);
      (4, map2 (fun i j -> Merge (i, j)) idx idx);
      ( 3,
        map3
          (fun i raw ranks -> Add_dead (i, raw, ranks))
          idx (list_size (int_bound 3) id) (list_size (int_bound 4) idx) );
      (3, map (fun i -> Intern i) idx);
      (3, map2 (fun a b -> Merge_refs (a, b)) idx idx);
    ]

let view_max_id = 310

(* every observable of [v] equals the model's, and [equal] agrees with
   the model's against every earlier view *)
let same_view ~earlier (m, v) =
  let lv = View_ref.live m in
  let count = Array.length lv in
  let raises r =
    match View.live_select v r with _ -> false | exception Invalid_argument _ -> true
  in
  View.live v = lv
  && View.dead v = m.View_ref.dead
  && View.live_count v = count
  && List.for_all
       (fun x -> View.is_live v x = View_ref.mem lv x && View.live_rank v x = View_ref.rank lv x)
       (List.init (view_max_id + 2) (fun x -> x - 1))
  && List.for_all (fun r -> View.live_select v r = lv.(r)) (List.init count Fun.id)
  && raises (-1) && raises count
  && List.for_all (fun (m', v') -> View.equal v v' = View_ref.equal m m') earlier

let prop_view_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"bitset view = sorted-array reference"
       ~print:(fun ops -> String.concat "\n" (List.map pp_view_op ops))
       QCheck2.Gen.(list_size (int_range 1 40) gen_view_op)
       (fun ops ->
         let mpool = View_ref.Pool.create () and vpool = View.Pool.create () in
         let boot = (View_ref.bootstrap ~self:0 ~contact:1, View.bootstrap ~self:0 ~contact:1) in
         let views = ref [| boot |] and refs = ref [| (0, 0) |] in
         let nth a i = a.(i mod Array.length a) in
         let ok = ref (View_ref.Pool.intern mpool (fst boot) = View.Pool.intern vpool (snd boot)) in
         let push (m, v) =
           ok := !ok && same_view ~earlier:(Array.to_list !views) (m, v);
           views := Array.append !views [| (m, v) |]
         in
         let push_ref (rm, rv) =
           ok := !ok && rm = rv;
           refs := Array.append !refs [| (rm, rv) |];
           push (View_ref.Pool.get mpool rm, View.Pool.get vpool rv)
         in
         List.iter
           (function
             | Make (members, dead) ->
                 push (View_ref.make ~members ~dead, View.make ~members ~dead)
             | Bootstrap (self, contact) ->
                 push (View_ref.bootstrap ~self ~contact, View.bootstrap ~self ~contact)
             | Merge (i, j) ->
                 let mi, vi = nth !views i and mj, vj = nth !views j in
                 push (View_ref.merge mi mj, View.merge vi vj)
             | Add_dead (i, raw, ranks) ->
                 let m, v = nth !views i in
                 let lv = View_ref.live m in
                 let ids =
                   Array.of_list
                     (raw
                     @ if Array.length lv = 0 then [] else List.map (nth lv) ranks)
                 in
                 push (View_ref.add_dead m ids, View.add_dead v ids)
             | Intern i ->
                 let m, v = nth !views i in
                 push_ref (View_ref.Pool.intern mpool m, View.Pool.intern vpool v)
             | Merge_refs (a, b) ->
                 let ma, va = nth !refs a and mb, vb = nth !refs b in
                 push_ref (View_ref.Pool.merge_refs mpool ma mb, View.Pool.merge_refs vpool va vb))
           ops;
         !ok && View_ref.Pool.size mpool = View.Pool.size vpool))

(* The largest size tier-1 assembles: kdiamond n = 4098, k = 4, seed 1,
   crash-free. Besides the B9 bound (3 * 13 = 39 rounds), it pins the
   protocol's exact counts, which the view representation must not
   move. *)
let test_n4098 () =
  let r = assemble ~n:4098 ~k:4 () in
  check_bool "converged" true r.Run.converged;
  check_bool "verified" true r.Run.verified;
  check_bool "matches target" true r.Run.matches_target;
  check_bool (Printf.sprintf "%d rounds <= 39" r.Run.rounds) true (r.Run.rounds <= 39);
  check_int "rounds" 23 r.Run.rounds;
  check_int "gossip rounds" 21 r.Run.gossip_rounds;
  check_int "freezes" 4_208 r.Run.freezes;
  check_int "unfreezes" 110 r.Run.unfreezes;
  check_int "views interned" 54_281 r.Run.views_interned;
  check_int "messages" 204_392 r.Run.messages

let suite =
  [
    Alcotest.test_case "crash-free: converged, verified, target" `Quick test_crash_free_converges;
    prop_crash_free_assembly;
    Alcotest.test_case "re-converges after <= k-1 crashes" `Quick test_reconverges_after_crashes;
    Alcotest.test_case "engine byte-identity" `Quick test_engine_byte_identity;
    Alcotest.test_case "audit: 1/2/4-domain byte-identity" `Quick test_audit_pool_identity;
    Alcotest.test_case "audit verdict and shape" `Quick test_audit_verdict;
    Alcotest.test_case "argument validation" `Quick test_rejects_bad_arguments;
    Alcotest.test_case "B9: rounds <= 3 log2 n to n=1026" `Slow test_b9_rounds_within_c_log_n;
    prop_view_matches_reference;
    Alcotest.test_case "n=4098: bound and exact counts" `Slow test_n4098;
  ]
