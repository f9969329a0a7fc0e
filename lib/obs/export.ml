let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' | '\\' ->
          Buffer.add_char b '\\';
          Buffer.add_char b c
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* %g never prints a NaN/inf into the document *)
let fl f = if Float.is_finite f then Printf.sprintf "%g" f else "0"

(* the fewest significant digits (at most 17) that read back to [f] *)
let json_float f =
  if not (Float.is_finite f) then "0"
  else if Float.is_integer f && Float.abs f < 0x1p53 then Printf.sprintf "%.0f" f
  else
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else shortest (p + 1)
    in
    shortest 1

let last_events r n =
  if n <= 0 then []
  else
    let evs = Registry.events r in
    let len = List.length evs in
    if len <= n then evs else List.filteri (fun i _ -> i >= len - n) evs

let to_json ?(recent_events = 0) r =
  let b = Buffer.create 4096 in
  let add = Buffer.add_string b in
  let obj_of fmt items =
    List.iteri (fun i x -> add (fmt x (i = List.length items - 1))) items
  in
  add "{\n  \"schema\": \"lhg-obs/1\",\n";
  add (Printf.sprintf "  \"enabled\": %b,\n" (Registry.enabled r));
  add (Printf.sprintf "  \"virtual_time\": %s,\n" (json_float (Registry.now r)));
  add "  \"counters\": {\n";
  obj_of
    (fun c last ->
      Printf.sprintf "    \"%s\": %d%s\n" (escape (Registry.counter_name c))
        (Registry.counter_value c)
        (if last then "" else ","))
    (Registry.counters r);
  add "  },\n  \"gauges\": {\n";
  obj_of
    (fun g last ->
      Printf.sprintf "    \"%s\": %s%s\n" (escape (Registry.gauge_name g))
        (json_float (Registry.gauge_value g))
        (if last then "" else ","))
    (Registry.gauges r);
  add "  },\n  \"histograms\": {\n";
  obj_of
    (fun h last ->
      let count = Registry.histogram_count h in
      let sum = Registry.histogram_sum h in
      let mean = if count = 0 then 0.0 else sum /. float_of_int count in
      let bounds =
        Registry.histogram_bounds h |> Array.to_list |> List.map json_float |> String.concat ", "
      in
      let counts =
        Registry.histogram_counts h |> Array.to_list |> List.map string_of_int
        |> String.concat ", "
      in
      Printf.sprintf
        "    \"%s\": {\n\
        \      \"count\": %d,\n\
        \      \"sum\": %s,\n\
        \      \"mean\": %s,\n\
        \      \"p50\": %s,\n\
        \      \"p95\": %s,\n\
        \      \"p99\": %s,\n\
        \      \"bounds\": [%s],\n\
        \      \"bucket_counts\": [%s]\n\
        \    }%s\n"
        (escape (Registry.histogram_name h))
        count (json_float sum) (json_float mean)
        (json_float (Registry.percentile h 0.50))
        (json_float (Registry.percentile h 0.95))
        (json_float (Registry.percentile h 0.99))
        bounds counts
        (if last then "" else ","))
    (Registry.histograms r);
  add "  },\n  \"events\": {\n";
  add (Printf.sprintf "    \"recorded\": %d,\n" (Registry.events_recorded r));
  add (Printf.sprintf "    \"dropped\": %d,\n" (Registry.events_dropped r));
  add "    \"by_kind\": {\n";
  obj_of
    (fun k last ->
      Printf.sprintf "      \"%s\": %d%s\n" (Registry.span_kind_name k)
        (Registry.event_kind_count r k)
        (if last then "" else ","))
    Registry.all_span_kinds;
  add "    },\n    \"recent\": [\n";
  obj_of
    (fun (e : Registry.event_view) last ->
      Printf.sprintf "      { \"at\": %s, \"kind\": \"%s\", \"node\": %d, \"info\": %d }%s\n"
        (json_float e.Registry.at)
        (Registry.span_kind_name e.Registry.kind)
        e.Registry.node e.Registry.info
        (if last then "" else ","))
    (last_events r recent_events);
  add "    ]\n  }\n}\n";
  Buffer.contents b

let to_text ?(recent_events = 0) r =
  let b = Buffer.create 2048 in
  let add = Buffer.add_string b in
  if not (Registry.enabled r) then add "metrics: disabled registry\n"
  else begin
    add (Printf.sprintf "metrics @ virtual time %s\n" (fl (Registry.now r)));
    (match Registry.counters r with
    | [] -> ()
    | cs ->
        add "counters:\n";
        List.iter
          (fun c ->
            add (Printf.sprintf "  %-32s %d\n" (Registry.counter_name c) (Registry.counter_value c)))
          cs);
    (match Registry.gauges r with
    | [] -> ()
    | gs ->
        add "gauges:\n";
        List.iter
          (fun g ->
            add
              (Printf.sprintf "  %-32s %s\n" (Registry.gauge_name g) (fl (Registry.gauge_value g))))
          gs);
    (match Registry.histograms r with
    | [] -> ()
    | hs ->
        add "histograms:\n";
        List.iter
          (fun h ->
            let count = Registry.histogram_count h in
            let mean =
              if count = 0 then 0.0 else Registry.histogram_sum h /. float_of_int count
            in
            add
              (Printf.sprintf "  %-32s count=%d mean=%s p50=%s p95=%s p99=%s\n"
                 (Registry.histogram_name h) count (fl mean)
                 (fl (Registry.percentile h 0.50))
                 (fl (Registry.percentile h 0.95))
                 (fl (Registry.percentile h 0.99))))
          hs);
    add
      (Printf.sprintf "events: recorded=%d dropped=%d\n" (Registry.events_recorded r)
         (Registry.events_dropped r));
    List.iter
      (fun k ->
        let c = Registry.event_kind_count r k in
        if c > 0 then add (Printf.sprintf "  %-32s %d\n" (Registry.span_kind_name k) c))
      Registry.all_span_kinds;
    List.iter
      (fun (e : Registry.event_view) ->
        add
          (Printf.sprintf "  [%s] %s node=%d info=%d\n" (fl e.Registry.at)
             (Registry.span_kind_name e.Registry.kind)
             e.Registry.node e.Registry.info))
      (last_events r recent_events)
  end;
  Buffer.contents b
