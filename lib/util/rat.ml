type t = { num : int; den : int }

exception Overflow
exception Division_by_zero

(* negation and absolute value wrap on [min_int], the one native int
   without a representable opposite *)
let neg_checked a = if a = min_int then raise Overflow else -a
let abs_checked a = if a < 0 then neg_checked a else a

let rec gcd a b = if b = 0 then abs_checked a else gcd b (a mod b)

let mul_checked a b =
  if a = 0 || b = 0 then 0
  else
    let p = a * b in
    (* [min_int * -1] wraps to [min_int], which the division maps back *)
    if p / b <> a || (b = -1 && a = min_int) then raise Overflow else p

let add_checked a b =
  let s = a + b in
  (* overflow iff the sum's sign differs from both operands' signs *)
  if (a lxor s) land (b lxor s) < 0 then raise Overflow else s

let lcm a b =
  if a = 0 || b = 0 then 0 else abs_checked (mul_checked (a / gcd a b) b)

let make num den =
  if den = 0 then raise Division_by_zero;
  let num, den =
    if den < 0 then (neg_checked num, neg_checked den) else (num, den)
  in
  let g = gcd num den in
  if g = 0 then { num = 0; den = 1 } else { num = num / g; den = den / g }

let of_int n = { num = n; den = 1 }
let zero = of_int 0
let one = of_int 1
let minus_one = of_int (-1)
let num t = t.num
let den t = t.den

let add a b =
  let g = gcd a.den b.den in
  let da = a.den / g and db = b.den / g in
  (* a.num/ (g*da) + b.num/(g*db) = (a.num*db + b.num*da) / (g*da*db) *)
  let n = add_checked (mul_checked a.num db) (mul_checked b.num da) in
  make n (mul_checked (mul_checked g da) db)

let neg a = { a with num = neg_checked a.num }
let sub a b = add a (neg b)
let mul a b = make (mul_checked a.num b.num) (mul_checked a.den b.den)

let inv a =
  if a.num = 0 then raise Division_by_zero;
  make a.den a.num

let div a b = mul a (inv b)
let abs a = { a with num = abs_checked a.num }

let compare a b =
  (* a.num/a.den ? b.num/b.den  <=>  a.num*b.den ? b.num*a.den *)
  Stdlib.compare (mul_checked a.num b.den) (mul_checked b.num a.den)

let equal a b = a.num = b.num && a.den = b.den
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b
let sign a = Stdlib.compare a.num 0
let is_zero a = a.num = 0
let is_integer a = a.den = 1

let floor a =
  if a.num >= 0 then a.num / a.den
  else -(((-a.num) + a.den - 1) / a.den)

let ceil a = -floor (neg a)

let to_int_exn a =
  if a.den <> 1 then invalid_arg "Rat.to_int_exn: not an integer";
  a.num

let pp fmt a =
  if a.den = 1 then Format.fprintf fmt "%d" a.num
  else Format.fprintf fmt "%d/%d" a.num a.den

let to_string a = Format.asprintf "%a" pp a
