(* End-to-end benchmark driver.

     e2e.exe bench --workload W [--seed S] [--seconds N] [--trace 0|1]
     e2e.exe run W [--seed S] [--spawned-ns T]
     e2e.exe trace W [--seed S] [--out FILE]

   [bench] is the parent: it runs [run] children one after another,
   each a fresh process, for at least [--seconds] and at least
   [min_runs] times, checks every child's document and invariants, and
   prints the end-to-end metrics as its last line. With
   [--trace 1] it also runs one [trace] child and prints the per-layer
   metrics instead. A fresh process per repetition keeps in-process
   caches (the driver's tree-pack cache, its scratch buffer) from
   skipping work a command-line user pays on every run, and makes
   VmHWM a per-run peak. *)

module W = Workloads

let min_runs = 5
let expected_digests = "bench/e2e/expected/seed1.digests"
let die fmt = Printf.ksprintf (fun s -> prerr_endline ("e2e: " ^ s); exit 2) fmt

(* {2 Child output: one flat JSON line} *)

type value = Str of string | Num of float | Bool of bool

(* every digit, so that no two measured times print alike by rounding *)
let number f = Printf.sprintf "%.17g" (if Float.is_finite f then f else 0.0)

let json_line fields =
  let value = function
    | Str s -> Printf.sprintf "\"%s\"" (Obs.Export.escape s)
    | Num f -> number f
    | Bool b -> string_of_bool b
  in
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k (value v)) fields)
  ^ "}"

(* The inverse of [json_line] for what it writes: string, number and
   boolean values, strings free of escapes other than a backslash. *)
let parse_line line =
  let n = String.length line and i = ref 0 in
  let bad () = failwith ("unreadable child output: " ^ line) in
  let skip () = while !i < n && (line.[!i] = ' ' || line.[!i] = ',') do incr i done in
  let eat c = skip (); if !i < n && line.[!i] = c then incr i else bad () in
  let str () =
    eat '"';
    let b = Buffer.create 16 in
    while !i < n && line.[!i] <> '"' do
      if line.[!i] = '\\' then incr i;
      if !i < n then Buffer.add_char b line.[!i];
      incr i
    done;
    eat '"';
    Buffer.contents b
  in
  let scalar () =
    skip ();
    if !i < n && line.[!i] = '"' then Str (str ())
    else begin
      let j = !i in
      while !i < n && not (List.mem line.[!i] [ ','; '}'; ' ' ]) do incr i done;
      match String.sub line j (!i - j) with
      | "true" -> Bool true
      | "false" -> Bool false
      | s -> ( match float_of_string_opt s with Some f -> Num f | None -> bad ())
    end
  in
  eat '{';
  let rec fields acc =
    skip ();
    if !i < n && line.[!i] = '}' then List.rev acc
    else
      let k = str () in
      eat ':';
      let v = scalar () in
      fields ((k, v) :: acc)
  in
  fields []

let get_num fields k = match List.assoc_opt k fields with Some (Num f) -> f | _ -> 0.0
let get_str fields k = match List.assoc_opt k fields with Some (Str s) -> s | _ -> ""
let get_bool fields k = match List.assoc_opt k fields with Some (Bool b) -> b | _ -> false

(* {2 Metrics} *)

(* Spans the traced mode records around calls into each layer; each
   gives [<name>_s] (summed over calls), [.minor_mwords] and
   [.major_gcs]. *)
let layer_spans =
  [
    "overlay.controller_create";
    "overlay.commit_epoch";
    "overlay.cert_check";
    "overlay.cert_rebuild";
    "lhg.verify_quick";
    "overlay.rebuild_candidate";
    "scenario.lower";
    "graph_core.csr_freeze";
    "graph_core.tree_pack";
    "traffic.driver";
    "traffic.driver_obs_off";
    "topo.build_csr";
    "assemble.run";
  ]

(* Every per-layer metric with its unit, in report order. A workload
   that does not exercise a layer reports 0 for it. *)
let per_layer =
  List.concat_map
    (fun s ->
      [ (s ^ "_s", "s"); (s ^ "_s.minor_mwords", "Mwords"); (s ^ "_s.major_gcs", "count") ])
    layer_spans
  @ [
      ("overlay.commit_epoch_max_s", "s");
      ("traffic.stream_s", "s");
      ("assemble.protocol_s", "s");
      ("overlay.epochs", "count");
      ("overlay.fallback_epochs", "count");
      ("overlay.cert_diameter_miss_epochs", "count");
      ("overlay.attributed_frac", "ratio");
      ("overlay.certs_reused", "count");
      ("overlay.certs_revalidated", "count");
      ("overlay.certs_recomputed", "count");
      ("overlay.repair_cost_edges", "edges");
      ("overlay.rebuild_cost_edges", "edges");
      ("graph_core.tree_pack_count", "count");
      ("graph_core.tree_pack_max_depth", "hops");
      ("obs.on_off_ratio", "ratio");
      ("netsim.events", "count");
      ("netsim.link_queue_p95", "msgs");
      ("traffic.wire_messages", "count");
      ("traffic.deliveries", "count");
      ("traffic.max_queue_backlog", "msgs");
      ("traffic.tree_fallbacks", "count");
      ("traffic.restripe_patched", "count");
      ("traffic.restripe_repacked", "count");
      ("traffic.control_messages", "count");
      ("traffic.p50_delay_vt", "vt");
      ("traffic.p95_delay_vt", "vt");
      ("traffic.p99_delay_vt", "vt");
      ("traffic.wire_msgs_per_delivery", "ratio");
      ("traffic.undelivered_frac", "ratio");
      ("assemble.rounds", "rounds");
      ("assemble.messages", "count");
      ("assemble.unfreezes", "count");
      ("assemble.views_interned", "count");
      ("assemble.gossip_rounds", "rounds");
      ("gc.top_heap_mb", "MiB");
      ("trace.unattributed_frac", "ratio");
      ("trace.overhead_frac", "ratio");
    ]

(* Each end-to-end metric with its unit and the statistic of the run's
   repetitions it reports. On a shared host other tenants only ever add
   time to a repetition, in bursts of seconds to minutes, so the median
   repetition moves with them; the fastest repetition is the program's
   own time and holds steady. *)
let end_to_end =
  [
    ("wall_s", "s", fun s -> s.Stats.min);
    ("setup_s", "s", fun s -> s.Stats.median);
    ("peak_rss_mb", "MiB", fun s -> s.Stats.median);
  ]

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_lines
  |> List.find_map (fun l ->
         match String.split_on_char ':' l with
         | [ "VmHWM"; v ] -> Scanf.sscanf (String.trim v) "%d kB" (fun kb -> Some kb)
         | _ -> None)
  |> Option.fold ~none:0.0 ~some:(fun kb -> float_of_int kb /. 1024.0)

let digest s = Digest.to_hex (Digest.string s)

let outcome_fields (o : W.outcome) =
  [
    ("digest", Str (digest o.W.doc));
    ("epochs_digest", Str (digest o.W.epochs_doc));
    ("ok", Bool o.W.ok);
  ]

(* {2 Children} *)

let run_child (w : W.t) ~seed ~spawned_ns =
  let call = w.W.prepare ~seed in
  let setup_s = Spans.seconds_since spawned_ns in
  let t0 = Spans.now_ns () in
  let render = call () in
  let wall_s = Spans.seconds_since t0 in
  let o = render () in
  print_endline
    (json_line
       ([ ("setup_s", Num setup_s); ("wall_s", Num wall_s); ("peak_rss_mb", Num (peak_rss_mb ())) ]
       @ outcome_fields o))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let trace_child (w : W.t) ~seed ~out =
  let rec_ = Spans.create ~run:(Printf.sprintf "%s/seed%d" w.W.name seed) in
  let o, entry_s, counts = Spans.span rec_ "e2e.run" (fun () -> w.W.trace ~seed rec_) in
  let total = Spans.total rec_ in
  let span_metrics =
    List.concat_map
      (fun s ->
        [
          (s ^ "_s", total s);
          (s ^ "_s.minor_mwords", Spans.minor_mwords rec_ s);
          (s ^ "_s.major_gcs", float_of_int (Spans.major_gcs rec_ s));
        ])
      layer_spans
  in
  let root = List.hd (Spans.named rec_ "e2e.run") in
  let derived =
    [
      ("overlay.commit_epoch_max_s", Spans.longest rec_ "overlay.commit_epoch");
      ("traffic.stream_s", total "traffic.driver" -. total "graph_core.tree_pack");
      ( "assemble.protocol_s",
        if total "assemble.run" > 0.0 then total "assemble.run" -. total "lhg.verify_quick"
        else 0.0 );
      ( "gc.top_heap_mb",
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
        /. 1048576.0 );
      ("trace.unattributed_frac", Spans.self_time rec_ root /. Spans.duration root);
    ]
  in
  mkdir_p (Filename.dirname out);
  Spans.write_chrome rec_ out;
  Printf.eprintf "e2e: wrote %s\n" out;
  print_endline
    (json_line
       ((("entry_s", Num entry_s) :: outcome_fields o)
       @ List.map (fun (k, v) -> (k, Num v)) (span_metrics @ derived @ counts)))

(* The child currently running, so that a parent told to stop stops
   it too and waits for it. *)
let child = ref None

let () =
  let stop signal =
    Option.iter
      (fun pid ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid))
      !child;
    exit (128 + if signal = Sys.sigint then 2 else 15)
  in
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle stop)) [ Sys.sigterm; Sys.sigint ]

(* Run this executable with [args], stdout on a pipe, and return the
   fields of its last line, or [None] when it exits non-zero or its
   last line is not a result. *)
let spawn args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin wr Unix.stderr in
  child := Some pid;
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let lines = List.filter (fun l -> String.trim l <> "") (In_channel.input_lines ic) in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  child := None;
  match (status, List.rev lines) with
  | Unix.WEXITED 0, last :: _ -> ( try Some (parse_line last) with Failure _ -> None)
  | _ -> None

let spawn_run (w : W.t) ~seed =
  let t = Spans.now_ns () in
  spawn
    [|
      Sys.executable_name; "run"; w.W.name; "--seed"; string_of_int seed; "--spawned-ns";
      Int64.to_string t;
    |]

(* {2 The parent} *)

let expected_digest name =
  match In_channel.with_open_text expected_digests In_channel.input_lines with
  | lines ->
      List.find_map
        (fun l ->
          match String.split_on_char ' ' (String.trim l) with
          | [ n; d ] when n = name -> Some d
          | _ -> None)
        lines
  | exception Sys_error _ -> None

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (number v) unit)
          metrics))

let bench (w : W.t) ~seed ~seconds ~trace =
  let expected = if seed = 1 then expected_digest w.W.name else None in
  if seed = 1 && expected = None then die "no digest for %s in %s" w.W.name expected_digests;
  let started = Spans.now_ns () in
  let rec loop acc =
    let acc = spawn_run w ~seed :: acc in
    if List.length acc < min_runs || Spans.seconds_since started < seconds then loop acc
    else List.rev acc
  in
  let runs = loop [] in
  (* the reference document: the committed one at seed 1, else the
     first run's; a run whose document differs fails *)
  let reference =
    match expected with
    | Some d -> Some d
    | None -> List.find_map (Option.map (fun f -> get_str f "digest")) runs
  in
  let reference_epochs = List.find_map (Option.map (fun f -> get_str f "epochs_digest")) runs in
  let passes f =
    get_bool f "ok"
    && Some (get_str f "digest") = reference
    && Some (get_str f "epochs_digest") = reference_epochs
  in
  let good = List.filter_map (function Some f when passes f -> Some f | _ -> None) runs in
  let traced =
    if trace then spawn [| Sys.executable_name; "trace"; w.W.name; "--seed"; string_of_int seed |]
    else None
  in
  let traced = Option.bind traced (fun f -> if passes f then Some f else None) in
  let attempted = List.length runs + if trace then 1 else 0 in
  let failed = attempted - List.length good - if traced = None then 0 else 1 in
  Printf.printf "%s seed %d: %d runs, %d failed\n" w.W.name seed attempted failed;
  let metrics =
    if not trace then
      List.map
        (fun (name, unit, pick) ->
          let xs = List.map (fun f -> get_num f name) good in
          let v =
            if xs = [] then 0.0
            else begin
              let s = Stats.summarize xs in
              Printf.printf
                "  %-12s %-4s min %.6f  q1 %.6f  median %.6f  q3 %.6f  max %.6f  n %d\n" name
                unit s.Stats.min s.Stats.q1 s.Stats.median s.Stats.q3 s.Stats.max s.Stats.count;
              pick s
            end
          in
          (name, unit, v))
        end_to_end
    else
      let wall = List.map (fun f -> get_num f "wall_s") good in
      let fields = Option.value traced ~default:[] in
      let overhead =
        if wall = [] || fields = [] then 0.0
        else (get_num fields "entry_s" /. Stats.median wall) -. 1.0
      in
      List.map
        (fun (name, unit) ->
          let v = if name = "trace.overhead_frac" then overhead else get_num fields name in
          Printf.printf "  %-40s %14.6f %s\n" name v unit;
          (name, unit, v))
        per_layer
  in
  print_endline (result_line ~correct:(failed = 0) ~attempted ~failed metrics);
  if failed > 0 then exit 1

(* {2 Command line} *)

let usage () =
  die
    "usage: e2e.exe bench --workload W [--seed S] [--seconds N] [--trace 0|1]\n\
    \       e2e.exe run W [--seed S] [--spawned-ns T]\n\
    \       e2e.exe trace W [--seed S] [--out FILE]\n\
     workloads: %s"
    (String.concat ", " (List.map (fun w -> w.W.name) W.all))

let rec flags acc = function
  | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      flags ((String.sub k 2 (String.length k - 2), v) :: acc) rest
  | [] -> acc
  | _ -> usage ()

let int_flag fl k ~default =
  match List.assoc_opt k fl with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some i -> i | None -> usage ())

let workload name = match W.find name with Some w -> w | None -> usage ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "bench" :: rest ->
      let fl = flags [] rest in
      let w = workload (Option.value (List.assoc_opt "workload" fl) ~default:"") in
      let trace =
        match int_flag fl "trace" ~default:0 with 0 -> false | 1 -> true | _ -> usage ()
      in
      bench w ~seed:(int_flag fl "seed" ~default:1)
        ~seconds:(float_of_int (int_flag fl "seconds" ~default:10))
        ~trace
  | "run" :: name :: rest ->
      let fl = flags [] rest in
      let spawned_ns =
        match List.assoc_opt "spawned-ns" fl with
        | Some v -> ( match Int64.of_string_opt v with Some t -> t | None -> usage ())
        | None -> Spans.now_ns ()
      in
      run_child (workload name) ~seed:(int_flag fl "seed" ~default:1) ~spawned_ns
  | "trace" :: name :: rest ->
      let fl = flags [] rest in
      let w = workload name in
      let seed = int_flag fl "seed" ~default:1 in
      let out =
        Option.value (List.assoc_opt "out" fl)
          ~default:(Printf.sprintf "_build/e2e-trace/%s-seed%d.json" name seed)
      in
      trace_child w ~seed ~out
  | _ -> usage ()
