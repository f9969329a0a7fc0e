(** Concurrent multi-message flooding.

    Real dissemination systems flood many payloads at once from many
    origins; duplicate suppression is per payload id. This module runs a
    whole publication schedule through one simulation, so message counts
    and completion times reflect the interleaving (shared links, shared
    failures) rather than isolated runs. *)

type publication = {
  origin : int;
  inject_time : float;
  payload_id : int;  (** distinct per publication *)
}

type message_stats = {
  payload_id : int;
  origin : int;
  delivered_count : int;  (** nodes that received it, origin included *)
  completion : float;  (** last first-delivery time; injection-relative *)
  covers_all_alive : bool;
}

type result = {
  per_message : message_stats list;  (** in payload_id order *)
  total_messages : int;  (** network sends across all payloads *)
  all_covered : bool;
}

val run_env :
  env:Env.t -> csr:Graph_core.Csr.t -> publications:publication list -> unit -> result
(** Simulate the schedule under the given environment — the sole entry
    point (see {!Env} for the Env-only contract). Every {!Env.t} field
    except [pool] is consumed; the [prepare] hook runs before the first
    injection. With an enabled [env.obs], publishes the
    [multi.completion] per-payload completion histogram and the
    [multi.payloads] counter on top of the network-layer metrics.
    @raise Invalid_argument on duplicate payload ids, crashed or
    out-of-range origins, or negative injection times. *)
