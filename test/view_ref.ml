(* The sorted-array membership view that Assemble.View replaced with
   bitsets, kept as the reference model of test_assemble's
   differential property: the same semilattice, with sorted id arrays
   and a decimal-string interning key. *)

type t = { members : int array; dead : int array }

(* sorted-array set algebra: views are tiny relative to the message
   volume, so plain O(n) merges beat any tree structure *)

let dedup_sorted a =
  let n = Array.length a in
  if n <= 1 then a
  else begin
    let out = Array.make n a.(0) in
    let j = ref 0 in
    for i = 1 to n - 1 do
      if a.(i) <> out.(!j) then begin
        incr j;
        out.(!j) <- a.(i)
      end
    done;
    Array.sub out 0 (!j + 1)
  end

let normalize l =
  let a = Array.of_list l in
  Array.sort compare a;
  dedup_sorted a

let union a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 then b
  else if lb = 0 then a
  else begin
    let out = Array.make (la + lb) 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < la && !j < lb do
      let x = a.(!i) and y = b.(!j) in
      if x < y then begin
        out.(!k) <- x;
        incr i
      end
      else if y < x then begin
        out.(!k) <- y;
        incr j
      end
      else begin
        out.(!k) <- x;
        incr i;
        incr j
      end;
      incr k
    done;
    while !i < la do
      out.(!k) <- a.(!i);
      incr i;
      incr k
    done;
    while !j < lb do
      out.(!k) <- b.(!j);
      incr j;
      incr k
    done;
    Array.sub out 0 !k
  end

let diff a b =
  let la = Array.length a and lb = Array.length b in
  if lb = 0 then a
  else begin
    let out = Array.make la 0 in
    let j = ref 0 and k = ref 0 in
    for i = 0 to la - 1 do
      let x = a.(i) in
      while !j < lb && b.(!j) < x do
        incr j
      done;
      if not (!j < lb && b.(!j) = x) then begin
        out.(!k) <- x;
        incr k
      end
    done;
    if !k = la then a else Array.sub out 0 !k
  end

let inter a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (min la lb) 0 in
  let j = ref 0 and k = ref 0 in
  for i = 0 to la - 1 do
    let x = a.(i) in
    while !j < lb && b.(!j) < x do
      incr j
    done;
    if !j < lb && b.(!j) = x then begin
      out.(!k) <- x;
      incr k
    end
  done;
  Array.sub out 0 !k

let make ~members ~dead =
  let members = normalize members in
  let dead = inter (normalize dead) members in
  { members; dead }

let bootstrap ~self ~contact = make ~members:[ self; contact ] ~dead:[]

let merge a b =
  if a == b then a
  else { members = union a.members b.members; dead = union a.dead b.dead }

let add_dead t ids =
  let ids = Array.copy ids in
  Array.sort compare ids;
  { t with dead = union t.dead (inter (dedup_sorted ids) t.members) }

let live t = diff t.members t.dead

let equal a b = a == b || (a.members = b.members && a.dead = b.dead)

let key t =
  let b = Buffer.create (8 * (Array.length t.members + Array.length t.dead)) in
  Array.iter
    (fun v ->
      Buffer.add_string b (string_of_int v);
      Buffer.add_char b ',')
    t.members;
  Buffer.add_char b '|';
  Array.iter
    (fun v ->
      Buffer.add_string b (string_of_int v);
      Buffer.add_char b ',')
    t.dead;
  Buffer.contents b

let rank a x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length a && a.(!lo) = x then !lo else -1

let mem a x = rank a x >= 0

module Pool = struct
  type view = t

  type nonrec t = {
    tbl : (string, int) Hashtbl.t;
    mutable views : view array;
    mutable len : int;
  }

  let create () = { tbl = Hashtbl.create 64; views = Array.make 16 { members = [||]; dead = [||] }; len = 0 }

  let get t r =
    if r < 0 || r >= t.len then invalid_arg "Assemble.View.Pool.get: unknown ref";
    t.views.(r)

  let size t = t.len

  let intern t v =
    let k = key v in
    match Hashtbl.find_opt t.tbl k with
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
        Hashtbl.add t.tbl k r;
        r

  let merge_refs t a b =
    if a = b then a
    else begin
      let m = merge (get t a) (get t b) in
      let va = get t a in
      if equal m va then a
      else begin
        let vb = get t b in
        if equal m vb then b else intern t m
      end
    end
end
