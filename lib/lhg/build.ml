type t = {
  graph : Graph_core.Graph.t;
  shape : Shape.t;
  layout : Realize.layout;
  k : int;
}

type error =
  | K_too_small of int
  | N_too_small of { n : int; minimum : int }
  | Jd_gap of { n : int; k : int; j : int; capacity : int }

let pp_error fmt = function
  | K_too_small k -> Format.fprintf fmt "k = %d is too small: constructions need k >= 2" k
  | N_too_small { n; minimum } ->
      Format.fprintf fmt "n = %d is too small: the smallest graph for this k has %d nodes" n minimum
  | Jd_gap { n; k; j; capacity } ->
      Format.fprintf fmt
        "the Jenkins-Demers rule cannot build (n=%d, k=%d): %d added leaves needed, capacity %d" n
        k j capacity

let error_to_string e = Format.asprintf "%a" pp_error e

let of_shape shape =
  let graph, layout = Realize.realize shape in
  { graph; shape; layout; k = Shape.k shape }

let check_bounds ~n ~k =
  if k < 2 then Error (K_too_small k)
  else if n < 2 * k then Error (N_too_small { n; minimum = 2 * k })
  else Ok ()

(* Attach [j] added leaves, at most [cap] per host, walking above-leaf
   nodes deepest-first so new leaves stay at frontier depth. *)
let distribute_added shape ~j ~cap =
  if j > 0 && cap <= 0 then invalid_arg "Build.distribute_added: zero per-node capacity";
  let rec place remaining hosts =
    if remaining > 0 then
      match hosts with
      | [] -> invalid_arg "Build.distribute_added: out of capacity (internal error)"
      | host :: rest ->
          let here = min cap remaining in
          for _ = 1 to here do
            Shape.add_added_leaf shape ~parent:host
          done;
          place (remaining - here) rest
  in
  place j (List.rev (Shape.above_leaf_nodes shape))

let shape_ktree ~n ~k =
  match check_bounds ~n ~k with
  | Error e -> Error e
  | Ok () ->
      let alpha, j = Option.get (Existence.decompose_ktree ~n ~k) in
      let shape = Skeleton.make ~k ~alpha in
      distribute_added shape ~j ~cap:((2 * k) - 3);
      Ok shape

let shape_kdiamond ~n ~k =
  match check_bounds ~n ~k with
  | Error e -> Error e
  | Ok () ->
      let alpha, j = Option.get (Existence.decompose_kdiamond ~n ~k) in
      (* α = 2·conversions + unshared-marks: each conversion adds
         2(k−1) vertices, each unshared group k−1. *)
      let conversions = alpha / 2 and unshared = alpha mod 2 in
      let shape = Skeleton.make ~k ~alpha:conversions in
      if unshared = 1 then begin
        (* Deepest shared leaf keeps the frontier balanced. *)
        let leaf =
          List.fold_left
            (fun best l ->
              if Shape.kind shape l = Shape.Shared_leaf
                 && (best < 0 || Shape.depth shape l > Shape.depth shape best)
              then l
              else best)
            (-1) (Shape.leaves shape)
        in
        Shape.mark_unshared shape leaf
      end;
      distribute_added shape ~j ~cap:(k - 2);
      Ok shape

(* Deepest shared leaves first, so unshared groups sit on the frontier. *)
let mark_unshared_leaves shape ~count =
  let shared =
    List.filter (fun l -> Shape.kind shape l = Shape.Shared_leaf) (Shape.leaves shape)
    |> List.map (fun l -> (Shape.depth shape l, l))
    |> List.sort (fun a b -> compare b a)
    |> List.map snd
  in
  if List.length shared < count then
    invalid_arg "Build.mark_unshared_leaves: not enough shared leaves (internal error)";
  List.iteri (fun i l -> if i < count then Shape.mark_unshared shape l) shared

let shape_kdiamond_rich ~n ~k =
  match check_bounds ~n ~k with
  | Error e -> Error e
  | Ok () ->
      let alpha, j = Option.get (Existence.decompose_kdiamond ~n ~k) in
      (* minimise conversions c subject to the unshared count
         U = alpha - 2c fitting in the k + c(k-2) shared positions *)
      let conversions = max 0 (((alpha - k) + k - 1) / k) in
      let unshared = alpha - (2 * conversions) in
      let shape = Skeleton.make ~k ~alpha:conversions in
      mark_unshared_leaves shape ~count:unshared;
      distribute_added shape ~j ~cap:(k - 2);
      Ok shape

let shape_jd ~strict ~n ~k =
  match check_bounds ~n ~k with
  | Error e -> Error e
  | Ok () ->
      let alpha, j = Option.get (Existence.decompose_ktree ~n ~k) in
      let shape = Skeleton.make ~k ~alpha in
      let hosts =
        List.filter (fun nd -> Shape.kind shape nd <> Shape.Root) (Shape.above_leaf_nodes shape)
      in
      let capacity = 2 * min k (List.length hosts) in
      let feasible = j <= capacity && ((not strict) || j mod 2 = 0) in
      if not feasible then Error (Jd_gap { n; k; j; capacity })
      else begin
        let rec place remaining hosts =
          if remaining > 0 then
            match hosts with
            | [] -> invalid_arg "Build.jd: capacity accounting failed (internal error)"
            | host :: rest ->
                let here = min 2 remaining in
                for _ = 1 to here do
                  Shape.add_added_leaf shape ~parent:host
                done;
                place (remaining - here) rest
        in
        place j (List.rev hosts);
        Ok shape
      end

type construction = Ktree | Kdiamond | Kdiamond_rich | Jd of { strict : bool }

let construction_name = function
  | Ktree -> "ktree"
  | Kdiamond -> "kdiamond"
  | Kdiamond_rich -> "kdiamond-rich"
  | Jd { strict = true } -> "jd"
  | Jd { strict = false } -> "jd-lenient"

(* the shape is the construction; graph vs CSR is just realisation *)
let shape_for construction ~n ~k =
  match construction with
  | Ktree -> shape_ktree ~n ~k
  | Kdiamond -> shape_kdiamond ~n ~k
  | Kdiamond_rich -> shape_kdiamond_rich ~n ~k
  | Jd { strict } -> shape_jd ~strict ~n ~k

let build construction ~n ~k = Result.map of_shape (shape_for construction ~n ~k)

let build_csr construction ~n ~k =
  Result.map (fun shape -> fst (Realize.realize_csr shape)) (shape_for construction ~n ~k)

let ktree ~n ~k = build Ktree ~n ~k

let kdiamond ~n ~k = build Kdiamond ~n ~k

let kdiamond_unshared_rich ~n ~k = build Kdiamond_rich ~n ~k

let jd ?(strict = true) ~n ~k () = build (Jd { strict }) ~n ~k

let get_exn name = function
  | Ok t -> t
  | Error e -> invalid_arg (Printf.sprintf "Build.%s: %s" name (error_to_string e))

let build_exn construction ~n ~k =
  get_exn (construction_name construction) (build construction ~n ~k)

let build_csr_exn construction ~n ~k =
  get_exn (construction_name construction) (build_csr construction ~n ~k)

let jd_exn ?strict ~n ~k () = get_exn "jd_exn" (jd ?strict ~n ~k ())

let ktree_exn ~n ~k = get_exn "ktree_exn" (ktree ~n ~k)

let kdiamond_exn ~n ~k = get_exn "kdiamond_exn" (kdiamond ~n ~k)

let kdiamond_unshared_rich_exn ~n ~k =
  get_exn "kdiamond_unshared_rich_exn" (kdiamond_unshared_rich ~n ~k)
