module Prng = Graph_core.Prng
module Pqueue = Graph_core.Pqueue

type engine = Calendar | Heap

(* The event pool is chunked: capacity grows one fixed-size chunk at a
   time and chunks are never copied or freed, so a long run's memory is
   touched exactly once — no doubling copies, no munmap churn (page
   faults, not instructions, dominate at million-event scale). An event
   id is [chunk lsl chunk_bits lor offset]. 1024-entry chunks keep a
   short-lived simulator's setup cost at a few tens of KB while a
   million-event backlog still fits in about a thousand chunks. *)
let chunk_bits = 10

let chunk_len = 1 lsl chunk_bits

let chunk_mask = chunk_len - 1

(* Two ints carry a message event: [link] packs src/dst (31 bits each,
   [-1] marks a closure event), [tagpay] packs the payload over the
   2-bit tag. *)
let link_bits = 31

let link_mask = (1 lsl link_bits) - 1

let tag_bits = 2

let tag_mask = (1 lsl tag_bits) - 1

(* The calendar queue serves events year by year: the service window is
   [year*width, (year+1)*width). Entering a window partitions the home
   bucket's ids into [serving] (this year) and the compacted remainder
   (later years, same bucket modulo nbuckets). [serving] is kept sorted
   lazily: appends that arrive already in (time, seq) order — the
   steady state of constant-latency flooding — never trigger a sort.
   Every float the hot path writes lives in a float array, so moving
   the window or appending allocates nothing. *)
type calendar = {
  width : float;
  nbuckets : int;  (* rounded up to a power of two *)
  bmask : int;  (* nbuckets - 1 *)
  bdata : int array array;  (* per-bucket event ids; inner arrays grow by doubling *)
  blen : int array;
  mutable spare : int array;  (* a drained bucket's array, for the next empty bucket to fill *)
  mutable year : int;
  win : float array;
      (* cached window bounds: width *. year, width *. (year + 1) and
         width *. (year + 2), the next window (the steady-state insert target) *)
  lt : float array;  (* length 1: time of the last serving append *)
  mutable last_id : int;  (* id of that append, for (time, seq) tie checks *)
  mutable serving : int array;
  mutable serve_len : int;
  mutable serve_pos : int;
  mutable sorted : bool;  (* [serving.(serve_pos .. serve_len-1)] ascending? *)
  (* [cal_sort]'s scratch, allocated by the first sort that needs it and
     grown to the largest window sorted so far. Per calendar, not
     global: simulators run on several domains at once. [key_*] is the
     flat copy of the unsorted window's keys and ids; [key_lane] holds
     each key's lane (the index of its time among the window's distinct
     times, one byte), and the distribution scatters [key_*] into
     [dist_*], then swaps the two, so a calendar that never distributes
     never allocates [dist_*]. [key_lane] always has the length of
     [key_*]; [dist_*] is never longer, and is grown to that length
     before a scatter, so a swap never shortens [key_*]. Per lane: its
     time in [lane_time], its count in [lane_n.(l)] and its next free
     position in [lane_n.(lane_cap + l)]. *)
  mutable key_time : float array;
  mutable key_seq : int array;
  mutable key_id : int array;
  mutable key_lane : Bytes.t;
  mutable dist_time : float array;
  mutable dist_seq : int array;
  mutable dist_id : int array;
  mutable lane_time : float array;
  mutable lane_n : int array;
}

type queue = Cal of calendar | Hp of (float * int * int) Pqueue.t

type t = {
  mutable clock : float;  (* boxed, but replaced only when time moves: see [set_clock] *)
  horizon : float;  (* every event time is below it: see [bad_time] *)
  cell : float array;  (* length 1: the time [schedule_message_cell] reads *)
  mutable next_seq : int;
  mutable processed : int;
  mutable published : int;  (* [processed] at the last [publish] *)
  mutable pending : int;
  rng : Prng.t;
  m_events : Obs.Registry.counter;
  counting : bool;  (* cached [Obs.Registry.enabled obs] *)
  queue : queue;
  mutable handler : src:int -> dst:int -> tag:int -> payload:int -> unit;
  mutable handler_set : bool;
  mutable publish_sink : unit -> unit;  (* the handler owner's publish *)
  (* chunked struct-of-arrays event pool, indexed by event id: four
     words a slot. A free slot's [ev_seq] holds the next free id (-1
     ends the list), so recycling ids needs no column of its own and
     steady-state message traffic allocates nothing. *)
  mutable ev_time : float array array;
  mutable ev_seq : int array array;
  mutable ev_link : int array array;
  mutable ev_tagpay : int array array;
  mutable nchunks : int;
  mutable free_head : int;  (* first free id, -1 when every slot is taken *)
  (* closure events are the rare case: callbacks live in a small side
     table, referenced through [tagpay] *)
  mutable cbs : (unit -> unit) array;
  mutable cb_free : int array;
  mutable cb_free_top : int;
}

let no_callback () = ()

let no_publish () = ()

let default_handler ~src:_ ~dst:_ ~tag:_ ~payload:_ =
  invalid_arg "Sim: message event fired with no handler installed (set_message_handler)"

let create ?(seed = 0x51) ?(obs = Obs.Registry.nil) ?(engine = Calendar)
    ?(bucket_width = 1.0) ?(buckets = 512) () =
  if not (bucket_width > 0.0) then invalid_arg "Sim.create: bucket_width must be positive";
  if buckets < 1 then invalid_arg "Sim.create: buckets must be positive";
  let queue =
    match engine with
    | Calendar ->
        (* a power-of-two bucket count turns the per-event modulo into a
           mask; rounding up only changes the hash spread, never order *)
        let nbuckets =
          let b = ref 1 in
          while !b < buckets do
            b := 2 * !b
          done;
          !b
        in
        Cal
          {
            width = bucket_width;
            nbuckets;
            bmask = nbuckets - 1;
            bdata = Array.make nbuckets [||];
            blen = Array.make nbuckets 0;
            spare = [||];
            year = 0;
            win = [| 0.0; bucket_width; bucket_width *. 2.0 |];
            lt = [| 0.0 |];
            last_id = -1;
            serving = [||];
            serve_len = 0;
            serve_pos = 0;
            sorted = true;
            key_time = [||];
            key_seq = [||];
            key_id = [||];
            key_lane = Bytes.empty;
            dist_time = [||];
            dist_seq = [||];
            dist_id = [||];
            lane_time = [||];
            lane_n = [||];
          }
    | Heap ->
        Hp
          (Pqueue.create ~cmp:(fun (t1, s1, _) (t2, s2, _) ->
               match Float.compare t1 t2 with 0 -> compare (s1 : int) s2 | c -> c))
  in
  let t =
    {
      clock = 0.0;
      horizon = bucket_width *. 0x1p52;
      cell = [| 0.0 |];
      next_seq = 0;
      processed = 0;
      published = 0;
      pending = 0;
      rng = Prng.create ~seed;
      m_events = Obs.Registry.counter obs "sim.events";
      counting = Obs.Registry.enabled obs;
      queue;
      handler = default_handler;
      handler_set = false;
      publish_sink = no_publish;
      ev_time = [||];
      ev_seq = [||];
      ev_link = [||];
      ev_tagpay = [||];
      nchunks = 0;
      free_head = -1;
      cbs = [||];
      cb_free = [||];
      cb_free_top = 0;
    }
  in
  Obs.Registry.set_clock obs (fun () -> t.clock);
  t

let engine t = match t.queue with Cal _ -> Calendar | Hp _ -> Heap

(* [now] hands callers the clock's existing box, so reading the time
   never allocates. The box is replaced only when an event moves the
   time; events that share an instant, like a round of a unit-latency
   flood, leave it alone. The zero test keeps an event at -0.0 from
   reading as +0.0. *)
let now t = t.clock

let[@inline] set_clock t time =
  let c = t.clock in
  if time <> c || (time = 0.0 && Float.sign_bit time <> Float.sign_bit c) then t.clock <- time

let rng t = t.rng

let fork_rng t = Prng.split t.rng

(* -- event pool --------------------------------------------------------- *)

let[@inline] time_of t id =
  Array.unsafe_get (Array.unsafe_get t.ev_time (id lsr chunk_bits)) (id land chunk_mask)

let[@inline] seq_of t id =
  Array.unsafe_get (Array.unsafe_get t.ev_seq (id lsr chunk_bits)) (id land chunk_mask)

(* only reached with an empty free list *)
let add_chunk t =
  let c = t.nchunks in
  if c = Array.length t.ev_time then begin
    (* double the chunk spine (pointer arrays, a few hundred bytes) *)
    let spine a = Array.append a (Array.make (max 8 c) [||]) in
    t.ev_time <- spine t.ev_time;
    t.ev_seq <- spine t.ev_seq;
    t.ev_link <- spine t.ev_link;
    t.ev_tagpay <- spine t.ev_tagpay
  end;
  (* the fresh chunk's seq column is the whole free list: each id links
     to the next one up, so the lowest id is taken first *)
  let base = c lsl chunk_bits in
  let seqs = Array.make chunk_len (-1) in
  for i = 0 to chunk_mask - 1 do
    seqs.(i) <- base + i + 1
  done;
  t.ev_time.(c) <- Array.make chunk_len 0.0;
  t.ev_seq.(c) <- seqs;
  t.ev_link.(c) <- Array.make chunk_len (-1);
  t.ev_tagpay.(c) <- Array.make chunk_len 0;
  t.nchunks <- c + 1;
  t.free_head <- base

(* [@inline] here and down the insert path keeps the event time
   unboxed from the scheduling call to the pool and the calendar *)
let[@inline] alloc_event t ~time =
  if t.free_head < 0 then add_chunk t;
  let id = t.free_head in
  let c = id lsr chunk_bits and o = id land chunk_mask in
  let seqs = Array.unsafe_get t.ev_seq c in
  t.free_head <- Array.unsafe_get seqs o;
  Array.unsafe_set seqs o t.next_seq;
  Array.unsafe_set (Array.unsafe_get t.ev_time c) o time;
  t.next_seq <- t.next_seq + 1;
  t.pending <- t.pending + 1;
  id

(* a released id's seq is overwritten with the list link, so nothing
   may read the seq of an event once it has been popped *)
let[@inline] release_event t id =
  Array.unsafe_set (Array.unsafe_get t.ev_seq (id lsr chunk_bits)) (id land chunk_mask) t.free_head;
  t.free_head <- id;
  t.pending <- t.pending - 1

let alloc_cb t cb =
  if t.cb_free_top = 0 then begin
    let cap = Array.length t.cbs in
    let ncap = if cap = 0 then 64 else 2 * cap in
    let ncbs = Array.make ncap no_callback in
    Array.blit t.cbs 0 ncbs 0 cap;
    t.cbs <- ncbs;
    let nf = Array.make ncap 0 in
    for i = 0 to ncap - cap - 1 do
      nf.(i) <- ncap - 1 - i
    done;
    t.cb_free <- nf;
    t.cb_free_top <- ncap - cap
  end;
  t.cb_free_top <- t.cb_free_top - 1;
  let s = t.cb_free.(t.cb_free_top) in
  t.cbs.(s) <- cb;
  s

(* -- calendar queue ----------------------------------------------------- *)

(* move the service window to [year], keeping the cached bounds in step.
   [win.(2)] must equal the [win.(1)] this window computes for [year + 1]
   exactly — same multiplication, same operands — so the steady-state
   insert fast path below agrees bit-for-bit with the serving filter. *)
let[@inline] cal_set_year cal year =
  cal.year <- year;
  Array.unsafe_set cal.win 0 (cal.width *. float_of_int year);
  Array.unsafe_set cal.win 1 (cal.width *. float_of_int (year + 1));
  Array.unsafe_set cal.win 2 (cal.width *. float_of_int (year + 2))

(* an empty bucket takes the spare array before allocating its own, so
   steady-state windows pass one array along instead of growing a new
   one per bucket *)
let cal_push_bucket cal id b =
  let arr = Array.unsafe_get cal.bdata b in
  let len = Array.unsafe_get cal.blen b in
  if len = Array.length arr then begin
    let narr =
      if len = 0 && Array.length cal.spare > 0 then begin
        let s = cal.spare in
        cal.spare <- [||];
        s
      end
      else begin
        let narr = Array.make (max 8 (2 * len)) 0 in
        Array.blit arr 0 narr 0 len;
        narr
      end
    in
    cal.bdata.(b) <- narr;
    narr.(len) <- id
  end
  else Array.unsafe_set arr len id;
  Array.unsafe_set cal.blen b (len + 1)

(* [time] is [time_of t id], already loaded by every caller. The sorted
   check compares against the previous append through the [lt]/[last_id]
   cache, so the monotone fast path never re-reads pool chunks. *)
let[@inline] cal_push_serving t cal id time =
  if cal.serve_pos = cal.serve_len then begin
    cal.serve_pos <- 0;
    cal.serve_len <- 0;
    cal.sorted <- true
  end;
  let len = cal.serve_len in
  if len = Array.length cal.serving then begin
    let narr = Array.make (max 16 (2 * len)) 0 in
    Array.blit cal.serving 0 narr 0 len;
    cal.serving <- narr
  end;
  (if cal.sorted && len > cal.serve_pos then begin
     let lt = Array.unsafe_get cal.lt 0 in
     if time < lt then cal.sorted <- false
     else if time = lt && seq_of t id < seq_of t cal.last_id then cal.sorted <- false
   end);
  Array.unsafe_set cal.lt 0 time;
  cal.last_id <- id;
  Array.unsafe_set cal.serving len id;
  cal.serve_len <- len + 1

(* pull this year's events out of the window's home bucket. A bucket
   drained to empty gives its array up, kept as the spare when it is
   the largest on offer: otherwise every bucket would hold the largest
   window it ever saw until the run ends. *)
let cal_load_bucket t cal =
  let b = cal.year land cal.bmask in
  let len = Array.unsafe_get cal.blen b in
  if len > 0 then begin
    let w1 = Array.unsafe_get cal.win 1 in
    let arr = Array.unsafe_get cal.bdata b in
    let keep = ref 0 in
    for i = 0 to len - 1 do
      let id = Array.unsafe_get arr i in
      let tm = time_of t id in
      if tm < w1 then cal_push_serving t cal id tm
      else begin
        Array.unsafe_set arr !keep id;
        incr keep
      end
    done;
    Array.unsafe_set cal.blen b !keep;
    if !keep = 0 then begin
      if Array.length arr > Array.length cal.spare then cal.spare <- arr;
      cal.bdata.(b) <- [||]
    end
  end

(* The service window advanced past [time]'s year (peeks walk it forward
   over empty stretches): fold the unserved tail back into its home
   bucket and restart at [time]'s year. Time never runs backwards past
   the clock, so served events are unaffected. *)
let cal_rewind t cal time =
  let b = cal.year land cal.bmask in
  for i = cal.serve_pos to cal.serve_len - 1 do
    cal_push_bucket cal cal.serving.(i) b
  done;
  cal.serve_pos <- 0;
  cal.serve_len <- 0;
  cal.sorted <- true;
  cal_set_year cal (int_of_float (time /. cal.width));
  cal_load_bucket t cal

let[@inline] cal_insert t cal id time =
  if time < Array.unsafe_get cal.win 0 then cal_rewind t cal time;
  if time < Array.unsafe_get cal.win 1 then cal_push_serving t cal id time
  else if time < Array.unsafe_get cal.win 2 then
    (* next year's window — the steady state of unit-latency flooding;
       [win.(2)] matches the filter bound bit-for-bit, so no division *)
    cal_push_bucket cal id ((cal.year + 1) land cal.bmask)
  else cal_push_bucket cal id (int_of_float (time /. cal.width) land cal.bmask)

(* The sort below works on a flat copy of the window's keys: [kt]/[ks]
   hold (time, seq) and [ki] the id at each position. The annotations
   matter: without them the compares and reads compile generically and
   box every float. *)
let[@inline] key_less (kt : float array) (ks : int array) i j =
  let ti = Array.unsafe_get kt i and tj = Array.unsafe_get kt j in
  ti < tj || (ti = tj && Array.unsafe_get ks i < Array.unsafe_get ks j)

let[@inline] key_swap (kt : float array) (ks : int array) (ki : int array) i j =
  let t = Array.unsafe_get kt i and s = Array.unsafe_get ks i and d = Array.unsafe_get ki i in
  Array.unsafe_set kt i (Array.unsafe_get kt j);
  Array.unsafe_set ks i (Array.unsafe_get ks j);
  Array.unsafe_set ki i (Array.unsafe_get ki j);
  Array.unsafe_set kt j t;
  Array.unsafe_set ks j s;
  Array.unsafe_set ki j d

(* quicksort positions [lo, hi) down to short runs *)
let rec key_quick (kt : float array) (ks : int array) ki lo hi =
  if hi - lo > 16 then begin
    let mid = lo + ((hi - lo) / 2) and last = hi - 1 in
    let p =
      if key_less kt ks lo mid then
        if key_less kt ks mid last then mid else if key_less kt ks lo last then last else lo
      else if key_less kt ks lo last then lo
      else if key_less kt ks mid last then last
      else mid
    in
    let pt = kt.(p) and ps = ks.(p) in
    let i = ref lo and j = ref last in
    while !i <= !j do
      while
        let x = kt.(!i) in
        x < pt || (x = pt && ks.(!i) < ps)
      do
        incr i
      done;
      while
        let x = kt.(!j) in
        pt < x || (pt = x && ps < ks.(!j))
      do
        decr j
      done;
      if !i <= !j then begin
        key_swap kt ks ki !i !j;
        incr i;
        decr j
      end
    done;
    key_quick kt ks ki lo (!j + 1);
    key_quick kt ks ki !i hi
  end

(* A window with at most this many distinct times is ordered by
   distribution instead of the quicksort. A congested unit-latency
   stream holds at most 9 per window. A continuous latency model passes
   the cap within its first few dozen keys, and its window is
   quicksorted after that abandoned scan; DESIGN.md ("Window order")
   gives what the scan costs there. *)
let lane_cap = 32

(* Order the window's [len] keys by a stable distribution on exact
   time, or answer [false] (keys untouched) once they show more than
   [lane_cap] distinct times. Times share a lane when they are [=], the
   equality [key_less] ties on, so +0.0 and -0.0 share one; no NaN ever
   enters a window. Lanes are ranked by [<], the ids scattered in input
   order, and the scattered arrays become the keys. *)
let cal_distribute cal len =
  let kt = cal.key_time and kl = cal.key_lane in
  (* the lane writes below are unchecked *)
  assert (Bytes.length kl >= len);
  let lt = cal.lane_time and ln = cal.lane_n in
  let nl = ref 0 and i = ref 0 in
  while !i < len do
    let x = Array.unsafe_get kt !i in
    let l = ref 0 in
    while !l < !nl && Array.unsafe_get lt !l <> x do
      incr l
    done;
    if !l = lane_cap then i := len + 1 (* one time too many: give up *)
    else begin
      if !l = !nl then begin
        Array.unsafe_set lt !l x;
        Array.unsafe_set ln !l 0;
        incr nl
      end;
      Array.unsafe_set ln !l (Array.unsafe_get ln !l + 1);
      Bytes.unsafe_set kl !i (Char.unsafe_chr !l);
      incr i
    end
  done;
  if !i > len then false
  else begin
    let nl = !nl in
    (* a lane starts after every key of an earlier time *)
    for l = 0 to nl - 1 do
      let x = Array.unsafe_get lt l and start = ref 0 in
      for m = 0 to nl - 1 do
        if Array.unsafe_get lt m < x then start := !start + Array.unsafe_get ln m
      done;
      Array.unsafe_set ln (lane_cap + l) !start
    done;
    (* grown to the keys' length, not the window's: the swap must keep
       [key_*] as long as [key_lane] *)
    let cap = Array.length cal.key_id in
    if Array.length cal.dist_id < cap then begin
      cal.dist_time <- Array.create_float cap;
      cal.dist_seq <- Array.make cap 0;
      cal.dist_id <- Array.make cap 0
    end;
    let ks = cal.key_seq and ki = cal.key_id in
    let dt = cal.dist_time and ds = cal.dist_seq and di = cal.dist_id in
    for i = 0 to len - 1 do
      let slot = lane_cap + Char.code (Bytes.unsafe_get kl i) in
      let p = Array.unsafe_get ln slot in
      Array.unsafe_set ln slot (p + 1);
      Array.unsafe_set dt p (Array.unsafe_get kt i);
      Array.unsafe_set ds p (Array.unsafe_get ks i);
      Array.unsafe_set di p (Array.unsafe_get ki i)
    done;
    cal.key_time <- dt;
    cal.key_seq <- ds;
    cal.key_id <- di;
    cal.dist_time <- kt;
    cal.dist_seq <- ks;
    cal.dist_id <- ki;
    true
  end

(* sort serving.(serve_pos .. serve_len-1) by (time, seq): copy the
   window's keys out of the chunked pool once, order the copy with
   unboxed compares (the distribution above, or a quicksort when the
   window has too many distinct times), finish with one insertion pass,
   and write the ids back. The insertion pass puts right whatever the
   first stage left: the quicksort's short runs, or a lane whose seqs
   arrived out of order (no window this calendar builds has one, so
   after a distribution it makes one compare per key). Keys are
   distinct (seq is unique), so the sorted order is unique — the same
   permutation an in-place sort of the ids gives — and strict-less
   partitioning is safe. *)
let cal_sort t cal =
  let lo = cal.serve_pos in
  let len = cal.serve_len - lo in
  if Array.length cal.key_id < len then begin
    let cap = max len (2 * Array.length cal.key_id) in
    cal.key_time <- Array.create_float cap;
    cal.key_seq <- Array.make cap 0;
    cal.key_id <- Array.make cap 0;
    cal.key_lane <- Bytes.create cap;
    if Array.length cal.lane_n = 0 then begin
      cal.lane_time <- Array.create_float lane_cap;
      cal.lane_n <- Array.make (2 * lane_cap) 0
    end
  end;
  let a = cal.serving in
  (let kt = cal.key_time and ks = cal.key_seq and ki = cal.key_id in
   for i = 0 to len - 1 do
     let id = Array.unsafe_get a (lo + i) in
     Array.unsafe_set kt i (time_of t id);
     Array.unsafe_set ks i (seq_of t id);
     Array.unsafe_set ki i id
   done;
   if not (cal_distribute cal len) then key_quick kt ks ki 0 len);
  let kt = cal.key_time and ks = cal.key_seq and ki = cal.key_id in
  for i = 1 to len - 1 do
    let xt = Array.unsafe_get kt i and xs = Array.unsafe_get ks i and xi = Array.unsafe_get ki i in
    let j = ref (i - 1) in
    while
      !j >= 0
      &&
      let y = Array.unsafe_get kt !j in
      xt < y || (xt = y && xs < Array.unsafe_get ks !j)
    do
      Array.unsafe_set kt (!j + 1) (Array.unsafe_get kt !j);
      Array.unsafe_set ks (!j + 1) (Array.unsafe_get ks !j);
      Array.unsafe_set ki (!j + 1) (Array.unsafe_get ki !j);
      decr j
    done;
    Array.unsafe_set kt (!j + 1) xt;
    Array.unsafe_set ks (!j + 1) xs;
    Array.unsafe_set ki (!j + 1) xi
  done;
  Array.blit ki 0 a lo len;
  cal.sorted <- true;
  (* the append-monotonicity cache tracks the buffer's last element,
     which the sort has just moved — refresh it or the next append
     would compare against a mid-buffer key and miss an inversion *)
  Array.unsafe_set cal.lt 0 (Array.unsafe_get kt (len - 1));
  cal.last_id <- Array.unsafe_get ki (len - 1)

(* the id of the earliest pending event, advancing the service window as
   needed; -1 when the queue is empty. Does not consume. *)
let cal_locate t cal =
  if t.pending = 0 then -1
  else if cal.serve_pos < cal.serve_len then begin
    if not cal.sorted then cal_sort t cal;
    cal.serving.(cal.serve_pos)
  end
  else begin
    let scanned = ref 0 in
    while cal.serve_pos >= cal.serve_len do
      if !scanned >= cal.nbuckets then begin
        (* a whole year of empty windows: jump straight to the earliest
           pending event instead of stepping bucket by bucket *)
        let best = ref infinity in
        for b = 0 to cal.nbuckets - 1 do
          let arr = Array.unsafe_get cal.bdata b in
          for i = 0 to Array.unsafe_get cal.blen b - 1 do
            let tm = time_of t (Array.unsafe_get arr i) in
            if tm < !best then best := tm
          done
        done;
        cal_set_year cal (int_of_float (!best /. cal.width));
        scanned := 0
      end
      else begin
        cal_set_year cal (cal.year + 1);
        incr scanned
      end;
      cal_load_bucket t cal
    done;
    if not cal.sorted then cal_sort t cal;
    cal.serving.(cal.serve_pos)
  end

(* -- scheduling --------------------------------------------------------- *)

let[@inline] enqueue t id time =
  match t.queue with
  | Cal cal -> cal_insert t cal id time
  | Hp q -> Pqueue.push q (time, seq_of t id, id)

let[@inline] set_link t id v =
  Array.unsafe_set (Array.unsafe_get t.ev_link (id lsr chunk_bits)) (id land chunk_mask) v

let[@inline] set_tagpay t id v =
  Array.unsafe_set (Array.unsafe_get t.ev_tagpay (id lsr chunk_bits)) (id land chunk_mask) v

(* Every event time must be at or after the clock and below the
   horizon, [bucket_width *. 2^52] on both engines. The checks are
   written [not (time >= clock && time < horizon)] so that a NaN, which
   compares false with everything, fails them too. The calendar has no
   service window for a time outside that range: a NaN or +infinity
   lands in a bucket no window ever takes, and so can a finite time
   whose year is 2^53 or more, where [float_of_int (year + 1)] rounds
   back to [year] and a window's upper bound to the event's own time
   (with 1 or 4 buckets, a time of 2^60 is one); [run] would never
   return. Below the horizon every year and the next one are exact
   floats, and window bounds a year apart differ. A delay is checked
   through the time it gives. *)
let[@inline never] bad_time t fn time =
  invalid_arg
    (Printf.sprintf "Sim.%s: %s" fn
       (if Float.is_nan time then "NaN time"
        else if time = infinity then "infinite time"
        else if time >= t.horizon then "time beyond the simulator's horizon"
        else "time is in the past"))

let[@inline never] bad_delay fn delay =
  invalid_arg
    (Printf.sprintf "Sim.%s: %s" fn
       (if Float.is_nan delay then "NaN delay"
        else if delay < 0.0 then "negative delay"
        else if delay = infinity then "infinite delay"
        else "delay reaches beyond the simulator's horizon"))

let schedule_cb t ~time callback =
  let slot = alloc_cb t callback in
  let id = alloc_event t ~time in
  set_link t id (-1);
  set_tagpay t id slot;
  enqueue t id time

let schedule_at t ~time callback =
  if not (time >= t.clock && time < t.horizon) then bad_time t "schedule_at" time;
  schedule_cb t ~time callback

let schedule t ~delay callback =
  let time = t.clock +. delay in
  if not (delay >= 0.0 && time < t.horizon) then bad_delay "schedule" delay;
  schedule_cb t ~time callback

let set_message_handler t ~publish f =
  if t.handler_set then invalid_arg "Sim.set_message_handler: handler already installed";
  t.handler_set <- true;
  t.handler <- f;
  t.publish_sink <- publish

let[@inline] message_core t ~time ~src ~dst ~tag ~payload =
  (* negative values have high bits set, so the shifts also catch them *)
  if (src lor dst) lsr link_bits <> 0 then
    invalid_arg "Sim.schedule_message: src/dst outside [0, 2^31)";
  if tag lsr tag_bits <> 0 then invalid_arg "Sim.schedule_message: tag outside [0, 4)";
  if payload < 0 then invalid_arg "Sim.schedule_message: negative payload";
  let id = alloc_event t ~time in
  set_link t id ((src lsl link_bits) lor dst);
  set_tagpay t id ((payload lsl tag_bits) lor tag);
  enqueue t id time

(* [@inline] lets a caller's computed time reach the pool unboxed, but
   only where cross-module inlining is on; dune's dev profile passes
   -opaque, and there the time is boxed once per call. Hot callers in
   other modules write the time into [time_cell] instead. *)
let[@inline] schedule_message t ~time ~src ~dst ~tag ~payload =
  if not (time >= t.clock && time < t.horizon) then bad_time t "schedule_message" time;
  message_core t ~time ~src ~dst ~tag ~payload

let time_cell t = t.cell

(* The capacity send path: the time crosses the module boundary in a
   float array slot, which is an unboxed store and load, not a boxed
   argument. *)
let schedule_message_cell t ~src ~dst ~tag ~payload =
  let time = Array.unsafe_get t.cell 0 in
  if not (time >= t.clock && time < t.horizon) then bad_time t "schedule_message_cell" time;
  message_core t ~time ~src ~dst ~tag ~payload

(* The per-message hot path: saves the caller a [now] round trip (and
   the boxed float it would pass back) on every send. *)
let schedule_message_after t ~delay ~src ~dst ~tag ~payload =
  let time = t.clock +. delay in
  if not (delay >= 0.0 && time < t.horizon) then bad_delay "schedule_message_after" delay;
  message_core t ~time ~src ~dst ~tag ~payload

(* -- execution ---------------------------------------------------------- *)

let pop_next t =
  match t.queue with
  | Cal cal ->
      let id = cal_locate t cal in
      if id >= 0 then cal.serve_pos <- cal.serve_pos + 1;
      id
  | Hp q -> ( match Pqueue.pop q with Some (_, _, id) -> id | None -> -1)

let peek_id t =
  match t.queue with
  | Cal cal -> cal_locate t cal
  | Hp q -> ( match Pqueue.peek q with Some (_, _, id) -> id | None -> -1)

(* The counts reach the registry here, not per event: [sim.events]
   gets what [processed] gained since the last call, and the handler's
   owner publishes its own counts through the function it installed
   with its handler. [run] calls this when it returns or raises, and
   [step] after every event, so a registry read between runs or steps
   is up to date. *)
let publish t =
  if t.counting then begin
    Obs.Registry.add t.m_events (t.processed - t.published);
    t.published <- t.processed
  end;
  t.publish_sink ()

(* a handler raised: what ran before it still reaches the registry *)
let[@inline never] publish_and_reraise t e bt =
  publish t;
  Printexc.raise_with_backtrace e bt

let step_event t =
  let id = pop_next t in
  if id < 0 then false
  else begin
    let c = id lsr chunk_bits and o = id land chunk_mask in
    set_clock t (Array.unsafe_get (Array.unsafe_get t.ev_time c) o);
    t.processed <- t.processed + 1;
    let link = Array.unsafe_get (Array.unsafe_get t.ev_link c) o in
    let tp = Array.unsafe_get (Array.unsafe_get t.ev_tagpay c) o in
    (* recycle before dispatch: the handler may schedule into this slot *)
    release_event t id;
    if link >= 0 then
      t.handler ~src:(link lsr link_bits) ~dst:(link land link_mask) ~tag:(tp land tag_mask)
        ~payload:(tp lsr tag_bits)
    else begin
      let cb = t.cbs.(tp) in
      t.cbs.(tp) <- no_callback;
      t.cb_free.(t.cb_free_top) <- tp;
      t.cb_free_top <- t.cb_free_top + 1;
      cb ()
    end;
    true
  end

let step t =
  match step_event t with
  | r ->
      publish t;
      r
  | exception e -> publish_and_reraise t e (Printexc.get_raw_backtrace ())

let count_message t = t.processed <- t.processed + 1

let drain ?until t =
  match until with
  | None -> while step_event t do () done
  | Some limit ->
      let continue = ref true in
      while !continue do
        let id = peek_id t in
        if id < 0 || time_of t id > limit then continue := false
        else ignore (step_event t : bool)
      done

let run ?until t =
  match drain ?until t with
  | () -> publish t
  | exception e -> publish_and_reraise t e (Printexc.get_raw_backtrace ())

let events_processed t = t.processed

let pending t = t.pending
