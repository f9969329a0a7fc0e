(** Registry exporters.

    Snapshot a {!Registry} into a self-contained document: JSON for
    machines (the `lhg-obs/1` schema — what [lhg_tool flood --metrics
    json] emits), aligned text for humans. Both
    walk the registry in registration order, so diffs between two runs
    line up. *)

val escape : string -> string
(** JSON string-body escaping (backslash, quote, control chars). *)

val fl : float -> string
(** Float formatting for {!to_text} and {!Stream}'s documents: [%g]
    (six significant digits), with non-finite values clamped to ["0"]
    so the output always parses. *)

val json_float : float -> string
(** Lossless float formatting for {!to_json}: an integral value below
    2{^53} in magnitude prints as an integer ([3145739], [1048576]),
    any other finite value as the shortest [%.{p}g] (p ≤ 17) that reads
    back to the same float ([0.1], [2.3571428571428572]); non-finite
    values are clamped to ["0"]. *)

val to_json : ?recent_events:int -> Registry.t -> string
(** The registry as one JSON document. Histograms carry their bounds,
    per-bucket counts, count, sum, mean and p50/p95/p99; the events
    section carries totals, per-kind counts and up to [recent_events]
    (default 0) most recent events. Floats are emitted with
    {!json_float}, so every bound, sum and time reads back exactly, and
    non-finite values are clamped to 0, so the output always parses. *)

val to_text : ?recent_events:int -> Registry.t -> string
(** Human-readable rendering of the same snapshot, floats in [%g]
    ({!fl}). *)
