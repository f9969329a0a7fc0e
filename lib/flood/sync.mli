(** Synchronous-round flooding analysis (no simulator, no randomness).

    With unit link latency and no losses, deterministic flooding behaves
    exactly like BFS: a node first hears the message at round = hop
    distance, then forwards to every neighbour except its first parent.
    This module computes rounds and message counts in closed form from
    one BFS pass — the fast path used by the big parameter sweeps, while
    {!Flooding} cross-checks the same quantities by actual simulation. *)

type t = {
  reached : int;  (** vertices receiving the message, source included *)
  rounds : int;  (** max hop distance among reached vertices *)
  messages : int;  (** total point-to-point sends, dead targets included *)
  covers_all_alive : bool;
}

val flood_csr :
  ?workspace:Graph_core.Bfs.Workspace.t ->
  ?alive:bool array ->
  ?obs:Obs.Registry.t ->
  Graph_core.Csr.t ->
  source:int ->
  t
(** Flood from [source] over the alive part of a frozen snapshot.
    Messages sent to crashed neighbours are counted as sent (the sender
    cannot know), matching {!Flooding.run_csr_env}'s accounting. Passing
    [?workspace] makes
    repeated calls over the same (or same-sized) topology allocation-free
    — the path used by {!Reliability}'s Monte-Carlo loops and the large
    parameter sweeps. With an enabled [?obs], the run publishes the
    [sync.rounds] histogram, [sync.reached]/[sync.messages] counters
    and per-round [Round_start]/[Round_end] spans (round r spans
    virtual time (r−1, r], its [node] field the number of vertices
    first reached in that round); the disabled default records
    nothing and allocates nothing. *)

val message_bound : Graph_core.Csr.t -> int
(** The failure-free message count: 2m − (n − 1) — every edge carries
    the payload in both directions except the n−1 first-delivery tree
    edges, which carry it once. *)
