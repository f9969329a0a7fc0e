(** Sustained-traffic workload configuration.

    A workload is a set of source nodes, each injecting a stream of
    payload chunks into the network under an arrival process; every
    chunk is flooded to all nodes. This record is the composable half
    of the Workload API: it describes {e what enters} the network
    (who sends, how many chunks, at what rate, with what inter-arrival
    law), while the {!Flood.Env} it is paired with describes {e what
    the network does} with the traffic (latency, loss, link capacity,
    queue bound/policy). {!Driver.run_csr_env} consumes both.

    Like [Env], the record is built by piping [with_*] builders from
    {!default}; plain record update works too. *)

type arrival =
  | Periodic  (** source [i]'s chunk [j] enters at [(j+1)/rate] — a fixed drumbeat *)
  | Poisson
      (** exponential inter-arrival times of mean [1/rate], drawn from a
          per-source stream split off the run seed — memoryless bursts
          with the same long-run rate *)

(** How an injected chunk reaches the other nodes. *)
type dissemination =
  | Flood  (** every node re-sends to all neighbours: O(2m) messages per chunk *)
  | Trees
      (** each chunk rides one of the source's ⌊k/2⌋ packed edge-disjoint
          spanning trees ({!Graph_core.Tree_pack}), striped round-robin:
          n−1 messages per chunk, ~1/⌊k/2⌋ of the flood load per link,
          flood fallback on dead tree edges ({!Flood.Trees}) *)
  | Gossip
      (** random fanout-(k−1) push with a log₂(n)+4 TTL — probabilistic
          coverage, the randomized baseline *)

type t = {
  arrival : arrival;
  dissemination : dissemination;  (** how chunks spread; default {!Flood} *)
  sources : int list;
      (** explicit origin nodes; [[]] delegates to [source_count] *)
  source_count : int;
      (** when [sources = []]: this many origins spread evenly over the
          vertex range *)
  chunks_per_source : int;  (** chunks each source injects *)
  rate : float;  (** chunks per time unit, per source *)
}

val default : t
(** 4 evenly-spread sources, 8 chunks each, periodic at rate 0.05
    (one chunk per source every 20 time units), flooded. *)

val with_arrival : arrival -> t -> t

val with_dissemination : dissemination -> t -> t

val with_sources : int list -> t -> t
(** Pin the origin nodes explicitly. *)

val with_source_count : int -> t -> t
(** Use [count] evenly-spread origins (clears any explicit sources). *)

val with_chunks_per_source : int -> t -> t

val with_rate : float -> t -> t

val resolve_sources : t -> n:int -> int list
(** The actual origin nodes for an [n]-vertex run: [sources] verbatim
    when non-empty, else [i * n / source_count] for each
    [i < source_count]. *)

val validate : t -> n:int -> (unit, string) result
(** Structural validity against an [n]-vertex topology: positive finite
    rate, at least one chunk, sources in range and distinct (or a
    satisfiable [source_count]). The driver calls this and raises
    [Invalid_argument] on [Error]; CLIs can call it first for a clean
    diagnostic. *)

val arrival_name : arrival -> string
(** ["periodic"] / ["poisson"] — the names used on every surface
    (flags, JSON, docs). *)

val arrival_of_string : string -> (arrival, string) result

val dissemination_name : dissemination -> string
(** ["flood"] / ["trees"] / ["gossip"] — the names used on every
    surface (flags, JSON, docs). *)

val dissemination_of_string : string -> (dissemination, string) result
