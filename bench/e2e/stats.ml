(* Order statistics over repeated runs, and span self time.

   Quartiles follow Python's [statistics.quantiles(data, n=4)] default
   ("exclusive") method, so a spread computed here matches the one a
   script computes from the same samples. *)

type summary = { count : int; min : float; median : float; q1 : float; q3 : float; max : float }

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quartiles: no samples"
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let cut i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (cut 1, cut 2, cut 3)

let summarize xs =
  if xs = [] then invalid_arg "Stats.summarize: no samples";
  let q1, _, q3 = quartiles xs in
  {
    count = List.length xs;
    min = List.fold_left Float.min Float.infinity xs;
    median = median xs;
    q1;
    q3;
    max = List.fold_left Float.max Float.neg_infinity xs;
  }

(* A span as self time sees it: an interval and the span it ran under. *)
type span = { id : int; parent : int option; start : float; stop : float }

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (s, e) ->
        let s = Float.max s lo and e = Float.min e hi in
        if e > s then Some (s, e) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (s, e) ->
        match cur with
        | Some (cs, ce) when s <= ce -> (total, Some (cs, Float.max ce e))
        | Some (cs, ce) -> (total +. (ce -. cs), Some (s, e))
        | None -> (total, Some (s, e)))
      (0.0, None) clipped
  in
  match last with Some (s, e) -> total +. (e -. s) | None -> total

let self_time spans s =
  let children =
    List.filter_map
      (fun c -> if c.parent = Some s.id then Some (c.start, c.stop) else None)
      spans
  in
  s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop children
