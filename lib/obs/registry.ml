type counter = { c_name : string; mutable c_value : int }

(* Gauges and histogram sums live in one-element float arrays: storing
   into a flat float array is an unboxed write, whereas a mutable float
   field of a mixed record would allocate a box per store. *)
type gauge = { g_name : string; g_cell : float array }

type histogram = {
  h_name : string;
  h_bounds : float array;
  h_counts : int array;  (** length = bounds + 1; last bucket = overflow *)
  h_sum : float array;  (** one element *)
  mutable h_total : int;
}

type span_kind =
  | Round_start
  | Round_end
  | Retransmit
  | Crash
  | Recover
  | Link_down
  | Link_up
  | Loss_rate
  | Churn_join
  | Churn_leave
  | Epoch_start
  | Epoch_end

let span_kind_index = function
  | Round_start -> 0
  | Round_end -> 1
  | Retransmit -> 2
  | Crash -> 3
  | Recover -> 4
  | Link_down -> 5
  | Link_up -> 6
  | Loss_rate -> 7
  | Churn_join -> 8
  | Churn_leave -> 9
  | Epoch_start -> 10
  | Epoch_end -> 11

let all_span_kinds =
  [
    Round_start;
    Round_end;
    Retransmit;
    Crash;
    Recover;
    Link_down;
    Link_up;
    Loss_rate;
    Churn_join;
    Churn_leave;
    Epoch_start;
    Epoch_end;
  ]

let span_kind_count = List.length all_span_kinds

let span_kind_name = function
  | Round_start -> "round-start"
  | Round_end -> "round-end"
  | Retransmit -> "retransmit"
  | Crash -> "crash"
  | Recover -> "recover"
  | Link_down -> "link-down"
  | Link_up -> "link-up"
  | Loss_rate -> "loss-rate"
  | Churn_join -> "churn-join"
  | Churn_leave -> "churn-leave"
  | Epoch_start -> "epoch-start"
  | Epoch_end -> "epoch-end"

type metric = M_counter of counter | M_gauge of gauge | M_histogram of histogram

type t = {
  enabled : bool;
  mutable clock : unit -> float;
  by_name : (string, metric) Hashtbl.t;
  mutable rev_counters : counter list;
  mutable rev_gauges : gauge list;
  mutable rev_histograms : histogram list;
  (* span-event ring, struct of arrays: recording never allocates. The
     four arrays are empty until the first event, so a registry that
     records none (a traffic stream, an audit's per-plan scratch) never
     pays for the ring. *)
  ev_cap : int;
  mutable ev_time : float array;
  mutable ev_kind : int array;
  mutable ev_node : int array;
  mutable ev_info : int array;
  mutable ev_next : int;  (** total events ever recorded *)
  kind_counts : int array;  (** per-kind totals, eviction-proof *)
}

let create ?(enabled = true) ?(event_capacity = 65_536) () =
  if event_capacity <= 0 then invalid_arg "Registry.create: event_capacity must be positive";
  {
    enabled;
    clock = (fun () -> 0.0);
    by_name = Hashtbl.create 32;
    rev_counters = [];
    rev_gauges = [];
    rev_histograms = [];
    ev_cap = event_capacity;
    ev_time = [||];
    ev_kind = [||];
    ev_node = [||];
    ev_info = [||];
    ev_next = 0;
    kind_counts = Array.make span_kind_count 0;
  }

let nil = create ~enabled:false ~event_capacity:1 ()

let enabled t = t.enabled

let set_clock t f = if t.enabled then t.clock <- f

let now t = t.clock ()

let type_clash name = invalid_arg ("Registry: " ^ name ^ " is registered with another metric type")

(* counters *)

let counter t name =
  if not t.enabled then { c_name = name; c_value = 0 }
  else
    match Hashtbl.find_opt t.by_name name with
    | Some (M_counter c) -> c
    | Some _ -> type_clash name
    | None ->
        let c = { c_name = name; c_value = 0 } in
        Hashtbl.add t.by_name name (M_counter c);
        t.rev_counters <- c :: t.rev_counters;
        c

let incr c = c.c_value <- c.c_value + 1

let add c n = c.c_value <- c.c_value + n

let counter_value c = c.c_value

let counter_name c = c.c_name

(* gauges *)

let gauge t name =
  if not t.enabled then { g_name = name; g_cell = [| 0.0 |] }
  else
    match Hashtbl.find_opt t.by_name name with
    | Some (M_gauge g) -> g
    | Some _ -> type_clash name
    | None ->
        let g = { g_name = name; g_cell = [| 0.0 |] } in
        Hashtbl.add t.by_name name (M_gauge g);
        t.rev_gauges <- g :: t.rev_gauges;
        g

let set g v = g.g_cell.(0) <- v

let set_max g v = if v > g.g_cell.(0) then g.g_cell.(0) <- v

let gauge_value g = g.g_cell.(0)

let gauge_name g = g.g_name

(* histograms *)

let check_bounds bounds =
  let n = Array.length bounds in
  if n = 0 then invalid_arg "Registry.histogram: empty bounds";
  for i = 0 to n - 1 do
    if not (Float.is_finite bounds.(i)) then invalid_arg "Registry.histogram: non-finite bound";
    if i > 0 && bounds.(i) <= bounds.(i - 1) then
      invalid_arg "Registry.histogram: bounds must be strictly increasing"
  done

let make_histogram name bounds =
  {
    h_name = name;
    h_bounds = bounds;
    h_counts = Array.make (Array.length bounds + 1) 0;
    h_sum = [| 0.0 |];
    h_total = 0;
  }

let histogram t name ~bounds =
  check_bounds bounds;
  if not t.enabled then make_histogram name bounds
  else
    match Hashtbl.find_opt t.by_name name with
    | Some (M_histogram h) ->
        if Array.length h.h_bounds <> Array.length bounds then
          invalid_arg ("Registry.histogram: " ^ name ^ " exists with a different bucket count");
        h
    | Some _ -> type_clash name
    | None ->
        let h = make_histogram name bounds in
        Hashtbl.add t.by_name name (M_histogram h);
        t.rev_histograms <- h :: t.rev_histograms;
        h

(* [@inline] keeps [v] unboxed in [observe_array]: without flambda,
   passing a float to a call that is not inlined boxes it, even within
   this module *)
let[@inline] bucket h v =
  let b = h.h_bounds in
  let n = Array.length b in
  if v <= b.(0) then 0
  else if v > b.(n - 1) then n
  else begin
    (* smallest i with v <= b.(i) *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi > !lo do
      let mid = (!lo + !hi) / 2 in
      if v <= b.(mid) then hi := mid else lo := mid + 1
    done;
    !hi
  end

let[@inline] record h v =
  let idx = bucket h v in
  h.h_counts.(idx) <- h.h_counts.(idx) + 1;
  h.h_sum.(0) <- h.h_sum.(0) +. v;
  h.h_total <- h.h_total + 1

let observe h v = record h v

(* the n additions one by one, so the sum is the one n [observe]
   calls leave, whatever it held before *)
let observe_n h v ~n =
  if n < 0 then invalid_arg "Registry.observe_n: negative count";
  if n > 0 then begin
    let idx = bucket h v in
    h.h_counts.(idx) <- h.h_counts.(idx) + n;
    h.h_total <- h.h_total + n;
    let s = ref h.h_sum.(0) in
    for _ = 1 to n do
      s := !s +. v
    done;
    h.h_sum.(0) <- !s
  end

let observe_array h a ~len =
  if len < 0 || len > Array.length a then invalid_arg "Registry.observe_array: len outside the array";
  for i = 0 to len - 1 do
    record h (Array.unsafe_get a i)
  done

let histogram_count h = h.h_total

let histogram_sum h = h.h_sum.(0)

let percentile h q =
  if q < 0.0 || q > 1.0 then invalid_arg "Registry.percentile: q outside [0,1]";
  if h.h_total = 0 then 0.0
  else begin
    let rank = max 1 (int_of_float (ceil (q *. float_of_int h.h_total))) in
    let nb = Array.length h.h_bounds in
    let cum = ref 0 and found = ref (h.h_bounds.(nb - 1)) and looking = ref true in
    for i = 0 to nb - 1 do
      if !looking then begin
        cum := !cum + h.h_counts.(i);
        if !cum >= rank then begin
          found := h.h_bounds.(i);
          looking := false
        end
      end
    done;
    !found
  end

let histogram_name h = h.h_name

let histogram_bounds h = h.h_bounds

let histogram_counts h = Array.copy h.h_counts

let linear_bounds ~lo ~step ~count =
  if count <= 0 then invalid_arg "Registry.linear_bounds: count must be positive";
  if step <= 0.0 then invalid_arg "Registry.linear_bounds: step must be positive";
  Array.init count (fun i -> lo +. (step *. float_of_int i))

let exponential_bounds ~lo ~factor ~count =
  if count <= 0 then invalid_arg "Registry.exponential_bounds: count must be positive";
  if lo <= 0.0 then invalid_arg "Registry.exponential_bounds: lo must be positive";
  if factor <= 1.0 then invalid_arg "Registry.exponential_bounds: factor must exceed 1";
  let b = Array.make count lo in
  for i = 1 to count - 1 do
    b.(i) <- b.(i - 1) *. factor
  done;
  b

let hop_bounds = linear_bounds ~lo:0.0 ~step:1.0 ~count:64

let time_bounds = exponential_bounds ~lo:1.0 ~factor:2.0 ~count:24

let depth_bounds = linear_bounds ~lo:0.0 ~step:1.0 ~count:32

(* span events *)

type event_view = { at : float; kind : span_kind; node : int; info : int }

let event_at t ~at kind ~node ~info =
  if t.enabled then begin
    if Array.length t.ev_time = 0 then begin
      t.ev_time <- Array.make t.ev_cap 0.0;
      t.ev_kind <- Array.make t.ev_cap 0;
      t.ev_node <- Array.make t.ev_cap 0;
      t.ev_info <- Array.make t.ev_cap 0
    end;
    let ki = span_kind_index kind in
    let i = t.ev_next mod t.ev_cap in
    t.ev_time.(i) <- at;
    t.ev_kind.(i) <- ki;
    t.ev_node.(i) <- node;
    t.ev_info.(i) <- info;
    t.ev_next <- t.ev_next + 1;
    t.kind_counts.(ki) <- t.kind_counts.(ki) + 1
  end

let event t kind ~node ~info = if t.enabled then event_at t ~at:(t.clock ()) kind ~node ~info

let kind_of_index i = List.nth all_span_kinds i

let events t =
  let cap = t.ev_cap in
  let kept = min t.ev_next cap in
  let start = t.ev_next - kept in
  List.init kept (fun j ->
      let i = (start + j) mod cap in
      { at = t.ev_time.(i); kind = kind_of_index t.ev_kind.(i); node = t.ev_node.(i); info = t.ev_info.(i) })

let events_recorded t = t.ev_next

let events_dropped t = max 0 (t.ev_next - t.ev_cap)

let event_kind_count t kind = t.kind_counts.(span_kind_index kind)

(* introspection *)

let counters t = List.rev t.rev_counters

let gauges t = List.rev t.rev_gauges

let histograms t = List.rev t.rev_histograms

let find_histogram t name =
  match Hashtbl.find_opt t.by_name name with Some (M_histogram h) -> Some h | _ -> None

let merge dst src =
  if dst.enabled && src.enabled && dst != src then begin
    List.iter (fun c -> add (counter dst c.c_name) c.c_value) (counters src);
    List.iter
      (fun g ->
        let d = gauge dst g.g_name in
        if g.g_cell.(0) > d.g_cell.(0) then d.g_cell.(0) <- g.g_cell.(0))
      (gauges src);
    List.iter
      (fun h ->
        (* [histogram] only checks bucket count; merging also needs the
           bound values themselves to line up. *)
        let d = histogram dst h.h_name ~bounds:h.h_bounds in
        if d.h_bounds != h.h_bounds && d.h_bounds <> h.h_bounds then
          invalid_arg ("Registry.merge: " ^ h.h_name ^ " exists with different bounds");
        for i = 0 to Array.length h.h_counts - 1 do
          d.h_counts.(i) <- d.h_counts.(i) + h.h_counts.(i)
        done;
        d.h_sum.(0) <- d.h_sum.(0) +. h.h_sum.(0);
        d.h_total <- d.h_total + h.h_total)
      (histograms src);
    (* Replay retained events (event_at also bumps the per-kind
       totals), then account for the events src's ring had already
       evicted so the eviction-proof totals still add up. *)
    let replayed = Array.make span_kind_count 0 in
    List.iter
      (fun e ->
        let ki = span_kind_index e.kind in
        replayed.(ki) <- replayed.(ki) + 1;
        event_at dst ~at:e.at e.kind ~node:e.node ~info:e.info)
      (events src);
    for ki = 0 to span_kind_count - 1 do
      dst.kind_counts.(ki) <- dst.kind_counts.(ki) + (src.kind_counts.(ki) - replayed.(ki))
    done
  end

let clear t =
  List.iter (fun c -> c.c_value <- 0) t.rev_counters;
  List.iter (fun g -> g.g_cell.(0) <- 0.0) t.rev_gauges;
  List.iter
    (fun h ->
      Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
      h.h_sum.(0) <- 0.0;
      h.h_total <- 0)
    t.rev_histograms;
  t.ev_next <- 0;
  Array.fill t.kind_counts 0 (Array.length t.kind_counts) 0
