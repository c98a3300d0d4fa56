type t = {
  mutable keys : int array;  (* -1 = empty slot *)
  mutable vals : int array;
  mutable size : int;
  mutable mask : int;  (* capacity - 1, capacity a power of two *)
}

let create n =
  let cap = ref 16 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  { keys = Array.make !cap (-1); vals = Array.make !cap 0; size = 0; mask = !cap - 1 }

(* Fibonacci-style multiplicative mixing: dense keys spread over the
   whole table, so linear probing stays short *)
let slot mask key =
  let h = key * 0x1E3779B97F4A7C15 in
  (h lxor (h lsr 31)) land mask

let find t key =
  let keys = t.keys and mask = t.mask in
  let i = ref (slot mask key) in
  while
    let k = Array.unsafe_get keys !i in
    k <> key && k >= 0
  do
    i := (!i + 1) land mask
  done;
  if Array.unsafe_get keys !i = key then Array.unsafe_get t.vals !i else -1

let insert keys vals mask key v =
  let i = ref (slot mask key) in
  while keys.(!i) >= 0 do
    i := (!i + 1) land mask
  done;
  keys.(!i) <- key;
  vals.(!i) <- v

let grow t =
  let cap = 2 * (t.mask + 1) in
  let keys = Array.make cap (-1) and vals = Array.make cap 0 in
  Array.iteri
    (fun i k -> if k >= 0 then insert keys vals (cap - 1) k t.vals.(i))
    t.keys;
  t.keys <- keys;
  t.vals <- vals;
  t.mask <- cap - 1

let add t key v =
  if key < 0 then invalid_arg "Int_table.add: negative key";
  if 2 * (t.size + 1) > t.mask + 1 then grow t;
  insert t.keys t.vals t.mask key v;
  t.size <- t.size + 1

let length t = t.size
