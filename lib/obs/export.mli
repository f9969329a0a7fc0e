(** Registry exporters.

    Snapshot a {!Registry} into a self-contained document: JSON for
    machines (the `lhg-obs/1` schema — what [lhg_tool flood --metrics
    json] emits), aligned text for humans. Both
    walk the registry in registration order, so diffs between two runs
    line up. *)

val escape : string -> string
(** JSON string-body escaping (backslash, quote, control chars). *)

val fl : float -> string
(** Float formatting for every JSON surface: [%g], with non-finite
    values clamped to ["0"] so the output always parses. *)

val to_json : ?recent_events:int -> Registry.t -> string
(** The registry as one JSON document. Histograms carry their bounds,
    per-bucket counts, count, sum, mean and p50/p95/p99; the events
    section carries totals, per-kind counts and up to [recent_events]
    (default 0) most recent events. Floats are emitted with [%g] and
    non-finite values clamped to 0, so the output always parses. *)

val to_text : ?recent_events:int -> Registry.t -> string
(** Human-readable rendering of the same snapshot. *)
