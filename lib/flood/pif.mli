(** Propagation of Information with Feedback (Segall's PIF).

    Plain flooding delivers, but the source never learns it. PIF adds
    the feedback wave: every [Propagate] a node sends is eventually
    answered by exactly one [Echo] from that neighbour — immediately if
    the neighbour was already informed, or after the neighbour's whole
    subtree has echoed if the propagate made it a child. When the
    source's last pending echo arrives, every node is provably informed
    — deterministic termination detection in ≈ 2·eccentricity time and
    exactly 2 messages per graph edge.

    The feedback wave assumes live nodes (it is the classic
    reliable-network protocol): crashed nodes swallow echoes, so with
    failures the source simply never completes within the horizon —
    tested behaviour, not a bug. Pair with a failure detector to rebuild
    on a pruned topology if needed. *)

type result = {
  informed : bool array;
  completed : bool;  (** the source's feedback wave closed *)
  completion_detected_at : float;  (** -1 when not completed *)
  last_delivery_at : float;  (** when the last node was actually informed *)
  messages : int;  (** propagates + echoes *)
}

val run_env : env:Env.t -> csr:Graph_core.Csr.t -> source:int -> unit -> result
(** One PIF execution under the given environment — the sole entry
    point (see {!Env} for the Env-only contract). Rejects a non-zero
    [env.loss_rate] — the echo accounting is only meaningful on
    reliable channels; crash-style chaos (through [env.crashed] or a
    [prepare]-installed plan) is fair game and shows up as a
    never-closing feedback wave. With an enabled [env.obs], publishes
    the [pif.echoes] counter and [pif.completed] /
    [pif.completion_detected_at] / [pif.last_delivery_at] gauges.
    @raise Invalid_argument on a crashed or out-of-range source, or a
    positive loss rate. *)
