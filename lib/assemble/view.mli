(** Membership views: the join-semilattice the assembly protocol
    gossips over.

    A view is what one node currently believes about the group: the
    [members] it has ever heard of and the subset it has declared
    [dead]. Both sets only ever grow, and {!merge} is their pointwise
    union — so views form a join-semilattice and any gossip exchange
    moves both parties monotonically toward the same top element.
    That is the whole convergence argument: no retraction, no
    ordering assumptions, no coordinator.

    The [live] members — [members] minus [dead] — are the electorate:
    sorted ascending, their ranks are the slot assignment every node
    computes identically from the same view ({!Run}), which is what
    lets the deterministic kdiamond shape arithmetic replace a
    leader.

    {b Representation.} Both sets are bitsets of 62 ids per word
    (keeping each word clear of the sign bit, so a branch-free popcount
    works on it), trimmed of trailing zero words, so a view whose
    largest id is [m] costs about [m / 62] words rather than one word
    per member. Each view also caches its live count and a structural
    hash. With [w] = the longer view's word count:
    - {!merge}, {!equal} and {!Pool.merge_refs} are O(w) word
      operations; [merge_refs] answers by word-wise inclusion and
      allocates only when the join is strictly larger than both sides;
    - {!live_count} and {!is_live} are O(1);
    - {!live_rank} and {!live_select} are O(w) popcounts, and {!live}
      and {!dead} allocate their id arrays.

    The representation is invisible on the wire: {!Pool} still hands
    out refs in first-seen order and decides equality on the sets, so
    the refs every message carries, and every [lhg-assemble/1]
    document, are those of a sorted-array view. *)

type t

val make : members:int list -> dead:int list -> t
(** Normalise (dedup, clip [dead] to [members]).
    @raise Invalid_argument on a negative id. *)

val bootstrap : self:int -> contact:int -> t
(** The view a node is born with: itself and one contact, nobody
    dead. *)

val merge : t -> t -> t
(** Pointwise union — the lattice join. *)

val add_dead : t -> int array -> t
(** Declare members dead (ids not in [members] are ignored). *)

val live : t -> int array
(** [members] minus [dead], sorted ascending — the electorate. *)

val dead : t -> int array
(** The declared-dead ids, sorted ascending. *)

val live_count : t -> int
(** [Array.length (live t)], cached. *)

val is_live : t -> int -> bool
(** Member and not dead. *)

val live_rank : t -> int -> int
(** Index of a live id in {!live}; [-1] when the id is absent or
    dead. *)

val live_select : t -> int -> int
(** [live_select t r = (live t).(r)].
    @raise Invalid_argument unless [0 <= r < live_count t]. *)

val equal : t -> t -> bool

(** Interning table: one integer per distinct view, allocated in
    first-seen order. Protocol messages carry these refs as their
    payload word, so view equality is integer equality on the wire and
    the whole run's message plane stays on {!Netsim}'s allocation-free
    int path. Refs are execution-order deterministic, hence identical
    across the Calendar and Heap engines. *)
module Pool : sig
  type view := t

  type t

  val create : unit -> t

  val intern : t -> view -> int
  (** The ref of this view, allocating on first sight. *)

  val get : t -> int -> view

  val size : t -> int

  val merge_refs : t -> int -> int -> int
  (** [merge_refs p a b]: ref of the join of two interned views ([a]
      when [b] adds nothing to it, else [b] when [a] adds nothing to
      [b]). *)
end
