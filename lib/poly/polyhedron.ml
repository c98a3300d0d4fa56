module Rat = Pp_util.Rat

type t = { dim : int; cons : Constr.t list }

let make dim cons =
  List.iter (fun c -> assert (Constr.dim c = dim)) cons;
  { dim; cons }

let universe dim = { dim; cons = [] }
let empty dim = { dim; cons = [ Constr.make Ge (Array.make dim 0) (-1) ] }
let dim t = t.dim
let constraints t = t.cons
let mem t x = List.for_all (fun c -> Constr.sat c x) t.cons

(* Keep only the strongest constraint per (kind, coefficient vector), and
   drop tautologies.  Detects directly contradictory constant constraints. *)
let simplify t =
  let tbl = Hashtbl.create 16 in
  let contradiction = ref false in
  let keep = ref [] in
  List.iter
    (fun (c : Constr.t) ->
      if Pp_util.Vecint.is_zero c.v then begin
        match c.kind with
        | Constr.Eq -> if c.c <> 0 then contradiction := true
        | Constr.Ge -> if c.c < 0 then contradiction := true
      end
      else begin
        let key = (c.kind, Array.to_list c.v) in
        match Hashtbl.find_opt tbl key with
        | None ->
            Hashtbl.add tbl key c;
            keep := c :: !keep
        | Some (prev : Constr.t) -> (
            match c.kind with
            | Constr.Ge ->
                (* v.x + c >= 0 is stronger when c is smaller *)
                if c.c < prev.c then Hashtbl.replace tbl key c
            | Constr.Eq -> if c.c <> prev.c then contradiction := true)
      end)
    t.cons;
  if !contradiction then empty t.dim
  else
    { t with
      cons =
        List.rev_map
          (fun c -> Hashtbl.find tbl (c.Constr.kind, Array.to_list c.Constr.v))
          !keep }

let add_constraint t c =
  assert (Constr.dim c = t.dim);
  simplify { t with cons = c :: t.cons }

let intersect a b =
  assert (a.dim = b.dim);
  simplify { dim = a.dim; cons = a.cons @ b.cons }

(* Emptiness, bounds and entailment all go to the exact rational
   simplex.  [Rat.Overflow] yields the conservative answer for every
   caller: non-empty, unbounded, not entailed. *)
let is_empty t =
  let p = simplify t in
  p.cons <> [] && try not (Lp.feasible p.dim p.cons) with Rat.Overflow -> false

let is_universe t = (simplify t).cons = []

let bounds t (a : Affine.t) =
  assert (Affine.dim a = t.dim);
  if Affine.is_constant a then (Some a.Affine.const, Some a.Affine.const)
  else
    match Lp.bounds t.cons a with
    | Some b -> b
    | None | (exception Rat.Overflow) -> (None, None)

let dim_bounds t k = bounds t (Affine.var ~dim:t.dim k)

let entails t (c : Constr.t) =
  match Lp.bounds t.cons (Constr.affine c) with
  | None -> true (* an empty set entails everything *)
  | exception Rat.Overflow -> false
  | Some (lo, hi) -> (
      match c.kind with
      | Constr.Ge -> ( match lo with Some l -> Rat.sign l >= 0 | None -> false)
      | Constr.Eq -> (
          match (lo, hi) with
          | Some l, Some h -> Rat.is_zero l && Rat.is_zero h
          | _ -> false))

let is_subset a b =
  assert (a.dim = b.dim);
  List.for_all (entails a) b.cons

let equal_set a b = is_subset a b && is_subset b a

(* Substitute x_k := value in all constraints. *)
let fix_dim t k value =
  let fix (c : Constr.t) =
    let v = Array.copy c.v in
    let add = v.(k) * value in
    v.(k) <- 0;
    Constr.make c.kind v (c.c + add)
  in
  simplify { t with cons = List.map fix t.cons }

let sample t =
  let rec go t k acc =
    if k >= t.dim then if mem t (Array.of_list (List.rev acc)) then Some (Array.of_list (List.rev acc)) else None
    else
      match dim_bounds t k with
      | Some lo, Some hi ->
          let lo = Rat.ceil lo and hi = Rat.floor hi in
          let rec try_value v =
            if v > hi then None
            else
              match go (fix_dim t k v) (k + 1) (v :: acc) with
              | Some pt -> Some pt
              | None -> try_value (v + 1)
          in
          try_value lo
      | _ ->
          (* unbounded dimension: try 0 then small values around it *)
          let rec try_values = function
            | [] -> None
            | v :: rest -> (
                match go (fix_dim t k v) (k + 1) (v :: acc) with
                | Some pt -> Some pt
                | None -> try_values rest)
          in
          try_values [ 0; 1; -1; 2; -2 ]
  in
  if is_empty t then None else go t 0 []

let integer_points ?(max_points = 1_000_000) t =
  let out = ref [] in
  let n = ref 0 in
  let rec go t k acc =
    if k >= t.dim then begin
      incr n;
      if !n > max_points then failwith "Polyhedron.integer_points: too many points";
      out := Array.of_list (List.rev acc) :: !out
    end
    else
      match dim_bounds t k with
      | Some lo, Some hi ->
          let lo = Rat.ceil lo and hi = Rat.floor hi in
          for v = lo to hi do
            let t' = fix_dim t k v in
            if not (is_empty t') then go t' (k + 1) (v :: acc)
          done
      | _ -> failwith "Polyhedron.integer_points: unbounded polyhedron"
  in
  if not (is_empty t) then go t 0 [];
  List.rev !out

let count ?max_points t = List.length (integer_points ?max_points t)

let translate t v =
  assert (Array.length v = t.dim);
  let shift (c : Constr.t) =
    (* c holds on x iff shifted holds on x + v: v.(x+v)+c >= 0 becomes
       coeffs unchanged, constant c - coeffs.v *)
    Constr.make c.kind c.v (c.c - Pp_util.Vecint.dot c.v v)
  in
  { t with cons = List.map shift t.cons }

let pp ?names fmt t =
  if t.cons = [] then Format.fprintf fmt "{ universe(%d) }" t.dim
  else begin
    Format.fprintf fmt "{ ";
    List.iteri
      (fun i c ->
        if i > 0 then Format.fprintf fmt " and ";
        Constr.pp ?names fmt c)
      t.cons;
    Format.fprintf fmt " }"
  end

let to_string ?names t = Format.asprintf "%a" (pp ?names) t
