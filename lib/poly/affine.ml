module Rat = Pp_util.Rat

type t = { coeffs : Rat.t array; const : Rat.t }

let make coeffs const = { coeffs = Array.copy coeffs; const }
let of_int_coeffs coeffs const =
  { coeffs = Array.map Rat.of_int coeffs; const = Rat.of_int const }

let const ~dim c = { coeffs = Array.make dim Rat.zero; const = c }

let var ~dim k =
  let coeffs = Array.make dim Rat.zero in
  coeffs.(k) <- Rat.one;
  { coeffs; const = Rat.zero }

let dim t = Array.length t.coeffs

let add a b =
  assert (dim a = dim b);
  { coeffs = Array.init (dim a) (fun i -> Rat.add a.coeffs.(i) b.coeffs.(i));
    const = Rat.add a.const b.const }

let neg a = { coeffs = Array.map Rat.neg a.coeffs; const = Rat.neg a.const }
let sub a b = add a (neg b)

let scale k a =
  { coeffs = Array.map (Rat.mul k) a.coeffs; const = Rat.mul k a.const }

let eval_rat t x =
  let acc = ref t.const in
  Array.iteri (fun i c -> acc := Rat.add !acc (Rat.mul c x.(i))) t.coeffs;
  !acc

let eval t x =
  let acc = ref t.const in
  for i = 0 to dim t - 1 do
    acc := Rat.add !acc (Rat.mul t.coeffs.(i) (Rat.of_int x.(i)))
  done;
  !acc

let equal a b =
  dim a = dim b
  && Rat.equal a.const b.const
  && Array.for_all2 Rat.equal a.coeffs b.coeffs

let is_constant t = Array.for_all Rat.is_zero t.coeffs

let substitute e k by =
  assert (dim e = dim by);
  let c = e.coeffs.(k) in
  if Rat.is_zero c then e
  else begin
    let e' = { e with coeffs = Array.copy e.coeffs } in
    e'.coeffs.(k) <- Rat.zero;
    add e' (scale c by)
  end

let extend e n =
  assert (n >= dim e);
  let coeffs = Array.make n Rat.zero in
  Array.blit e.coeffs 0 coeffs 0 (dim e);
  { e with coeffs }

let default_name k = "i" ^ string_of_int k

let pp ?names fmt t =
  let name k =
    match names with Some ns when k < Array.length ns -> ns.(k) | _ -> default_name k
  in
  let printed = ref false in
  Array.iteri
    (fun k c ->
      if not (Rat.is_zero c) then begin
        if !printed then
          if Rat.sign c > 0 then Format.fprintf fmt " + "
          else Format.fprintf fmt " - "
        else if Rat.sign c < 0 then Format.fprintf fmt "-";
        let a = Rat.abs c in
        if Rat.equal a Rat.one then Format.fprintf fmt "%s" (name k)
        else Format.fprintf fmt "%a%s" Rat.pp a (name k);
        printed := true
      end)
    t.coeffs;
  if not !printed then Rat.pp fmt t.const
  else if not (Rat.is_zero t.const) then
    if Rat.sign t.const > 0 then Format.fprintf fmt " + %a" Rat.pp t.const
    else Format.fprintf fmt " - %a" Rat.pp (Rat.abs t.const)

let to_string ?names t = Format.asprintf "%a" (pp ?names) t
