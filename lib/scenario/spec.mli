(** One protocol run, described before it exists: the record every
    front end fills in and every driver consumes.

    Before this module, each CLI subcommand re-plumbed the same six
    flags into its own [Flood.Env] by hand — topology here, seed
    there, a pool spun up in a third place, the [--engine] flag only
    where someone had remembered it. A [Spec.t] is that tuple made
    first-class: what to build ([topology], [n], [k], [seed]), how to
    run it ([engine], [jobs]) and what to report ([metrics]). The
    helpers then derive everything else — {!graph}/{!csr} through
    {!Topo.Registry}, a {!Flood.Env.t} through {!to_env}, pool lifecycle
    through {!with_pool} — so "assemble", "traffic", "chaos" and
    friends differ only in the protocol they hand the env to. *)

type metrics = [ `Json | `Text ]

type t = {
  topology : string;  (** a {!Topo.Registry} name *)
  n : int;
  k : int;
  seed : int;
  jobs : int;  (** 0 = shared default pool, 1 = sequential, N = pool of N *)
  engine : Netsim.Sim.engine;
  metrics : metrics option;  (** observability sink; [None] = off *)
}

val default : t
(** kdiamond, n = 46, k = 4, seed = 1, jobs = 1, Calendar, no
    metrics — the CLI's defaults, in one place. *)

val validate : t -> (t, string) result
(** Check the spec is runnable: known topology, admissible (n, k),
    non-negative jobs. Error strings match the CLI's established
    wording ("unknown kind ..." with the catalogue, the entry's
    requirement line, "--jobs must be >= 0"). *)

val entry : t -> (Topo.Registry.entry, string) result

val graph : t -> (Graph_core.Graph.t, string) result
(** Build the adjacency-set graph through the registry. *)

val csr : ?big:bool -> t -> (Graph_core.Csr.t, string) result
(** Build the frozen CSR through the registry's uniform [csr] field.
    Every snapshot is off-heap, so [?big] is accepted and ignored; it
    stays only because the end-to-end benchmark passes [~big:true], and
    goes at the next benchmark change. *)

val construction : t -> (Lhg_core.Build.construction, string) result
(** The LHG construction behind [topology], or an error naming the
    entries that have one — for drivers (assembly) that need the shape
    arithmetic itself, not just the realised graph. *)

val obs : t -> Obs.Registry.t
(** A fresh registry when [metrics] is set, {!Obs.Registry.nil}
    otherwise. *)

val to_env : ?obs:Obs.Registry.t -> ?pool:Par.Pool.t -> t -> Flood.Env.t
(** The {!Flood.Env.t} this spec describes: seed, engine, obs sink and pool
    installed, everything else at {!Flood.Env.default}. *)

val with_pool : t -> (Par.Pool.t option -> 'a) -> ('a, string) result
(** Run [f] under the pool [jobs] asks for: [None] when sequential,
    the shared default pool for [jobs = 0], a fresh pool (shut down on
    the way out, exceptions included) for [jobs > 1]. [Error] on
    negative [jobs]. *)
