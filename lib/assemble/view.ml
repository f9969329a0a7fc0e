(* Sets of node ids are bitsets of [bits] ids per word. 62 keeps every
   word below 2^62, so the SWAR popcount's masks and its final multiply
   never reach the sign bit of a 63-bit OCaml int. Every set is trimmed
   (no trailing zero word), so equal sets are equal arrays. *)
let bits = 62

type t = {
  members : int array;
  dead : int array;  (** a subset of [members] *)
  live_count : int;
  hash : int;
}

let popcount x =
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

(* index of the lowest set bit of a non-zero word *)
let ctz x = popcount ((x land -x) - 1)

let popcount_words a = Array.fold_left (fun c w -> c + popcount w) 0 a

(* sized by the largest id, so the top word is non-zero *)
let of_ids ids =
  let hi =
    List.fold_left
      (fun m v -> if v < 0 then invalid_arg "Assemble.View.make: negative id" else max m v)
      (-1) ids
  in
  if hi < 0 then [||]
  else begin
    let a = Array.make ((hi / bits) + 1) 0 in
    List.iter (fun v -> a.(v / bits) <- a.(v / bits) lor (1 lsl (v mod bits))) ids;
    a
  end

let mem_words a v =
  v >= 0
  &&
  let w = v / bits in
  w < Array.length a && (a.(w) lsr (v mod bits)) land 1 = 1

(* trimmed inputs give a trimmed union: the longer one's top word is
   non-zero *)
let union a b =
  let a, b = if Array.length a >= Array.length b then (a, b) else (b, a) in
  if Array.length b = 0 then a
  else begin
    let out = Array.copy a in
    Array.iteri (fun i w -> out.(i) <- out.(i) lor w) b;
    out
  end

(* a ⊆ b; a trimmed [a] longer than [b] has an id beyond [b]'s words *)
let subset a b =
  let la = Array.length a in
  la <= Array.length b
  &&
  let i = ref 0 in
  while !i < la && a.(!i) land lnot b.(!i) = 0 do
    incr i
  done;
  !i = la

(* xor-multiply-fold per word, so every bit of every word reaches the
   low bits a hash table indexes by *)
let hash_words h a =
  Array.fold_left
    (fun h w ->
      let h = (h lxor w) * 0x100000001b3 in
      h lxor (h lsr 32))
    h a

let create members dead =
  let h = hash_words (hash_words 0x2545f491 members lxor Array.length members) dead in
  let h = (h lxor (h lsr 29)) * 0x100000001b3 in
  {
    members;
    dead;
    live_count = popcount_words members - popcount_words dead;
    hash = (h lxor (h lsr 32)) land max_int;
  }

let empty = create [||] [||]

let make ~members ~dead =
  let members = of_ids members in
  create members (of_ids (List.filter (mem_words members) dead))

let bootstrap ~self ~contact = make ~members:[ self; contact ] ~dead:[]

let merge a b = if a == b then a else create (union a.members b.members) (union a.dead b.dead)

let add_dead t ids =
  create t.members
    (union t.dead (of_ids (List.filter (mem_words t.members) (Array.to_list ids))))

let live_word t i =
  if i < Array.length t.dead then t.members.(i) land lnot t.dead.(i) else t.members.(i)

(* the ids of the set bits of [word 0 .. word (words - 1)], ascending *)
let ids ~count ~words word =
  let out = Array.make count 0 and k = ref 0 in
  for i = 0 to words - 1 do
    let x = ref (word i) in
    while !x <> 0 do
      out.(!k) <- (i * bits) + ctz !x;
      incr k;
      x := !x land (!x - 1)
    done
  done;
  out

let live t = ids ~count:t.live_count ~words:(Array.length t.members) (live_word t)

let dead t = ids ~count:(popcount_words t.dead) ~words:(Array.length t.dead) (Array.get t.dead)

let live_count t = t.live_count

let is_live t v = mem_words t.members v && not (mem_words t.dead v)

let live_rank t v =
  if not (is_live t v) then -1
  else begin
    let w = v / bits in
    let r = ref (popcount (live_word t w land ((1 lsl (v mod bits)) - 1))) in
    for i = 0 to w - 1 do
      r := !r + popcount (live_word t i)
    done;
    !r
  end

let live_select t r =
  if r < 0 || r >= t.live_count then invalid_arg "Assemble.View.live_select: rank out of range";
  let rec go i r =
    let x = live_word t i in
    let c = popcount x in
    if r >= c then go (i + 1) (r - c)
    else begin
      (* clear the r lowest live bits; the next one is the answer *)
      let x = ref x in
      for _ = 1 to r do
        x := !x land (!x - 1)
      done;
      (i * bits) + ctz !x
    end
  in
  go 0 r

let equal a b =
  a == b
  || (a.hash = b.hash && a.members = b.members && a.dead = b.dead)

module Key = struct
  type nonrec t = t

  let equal = equal
  let hash v = v.hash
end

module Pool = struct
  type view = t

  type nonrec t = {
    find : view -> int option;
    add : view -> int -> unit;
    mutable views : view array;
    mutable len : int;
  }

  (* the table is made per pool, not by a top-level functor
     application, which would allocate while every program that links
     this library starts up; that alone shifted the GC schedule of runs
     that never assemble (a million-node flood peaked 8 MiB higher) *)
  let create () =
    let module Tbl = Hashtbl.Make (Key) in
    let tbl = Tbl.create 64 in
    { find = Tbl.find_opt tbl; add = Tbl.add tbl; views = Array.make 16 empty; len = 0 }

  let get t r =
    if r < 0 || r >= t.len then invalid_arg "Assemble.View.Pool.get: unknown ref";
    t.views.(r)

  let size t = t.len

  let intern t v =
    match t.find v with
    | Some r -> r
    | None ->
        let r = t.len in
        if r = Array.length t.views then begin
          let grown = Array.make (2 * r) v in
          Array.blit t.views 0 grown 0 r;
          t.views <- grown
        end;
        t.views.(r) <- v;
        t.len <- r + 1;
        t.add v r;
        r

  (* the join is [a] when [b] adds nothing to it, and vice versa; only
     a strictly larger join is allocated *)
  let merge_refs t a b =
    if a = b then a
    else begin
      let va = get t a and vb = get t b in
      if subset vb.members va.members && subset vb.dead va.dead then a
      else if subset va.members vb.members && subset va.dead vb.dead then b
      else intern t (merge va vb)
    end
end
