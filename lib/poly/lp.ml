module Rat = Pp_util.Rat

type result = Opt of Rat.t | Unbounded | Infeasible

(* Dictionary-based primal simplex (Chvatal).  Variables are indexed
   globally; [basis.(i)] is the variable defined by row [i]:

     basis.(i) = bval.(i) - sum_j a.(i).(j) * nonbasis.(j)
     z         = obj0     + sum_j obj.(j)   * nonbasis.(j)

   All variables are >= 0.  Bland's smallest-index rule guarantees
   termination. *)
type dict = {
  mutable basis : int array;
  mutable nonbasis : int array;
  a : Rat.t array array;  (* m x n *)
  bval : Rat.t array;  (* m *)
  obj : Rat.t array;  (* n *)
  mutable obj0 : Rat.t;
}

let pivot d ~row ~col =
  let m = Array.length d.bval and n = Array.length d.obj in
  let piv = d.a.(row).(col) in
  assert (not (Rat.is_zero piv));
  (* solve row for the entering variable *)
  let inv = Rat.inv piv in
  d.bval.(row) <- Rat.mul d.bval.(row) inv;
  for j = 0 to n - 1 do
    d.a.(row).(j) <- Rat.mul d.a.(row).(j) inv
  done;
  (* the leaving variable takes the entering variable's column slot *)
  let leaving = d.basis.(row) and entering = d.nonbasis.(col) in
  d.a.(row).(col) <- inv;
  (* substitute into the other rows *)
  for i = 0 to m - 1 do
    if i <> row then begin
      let f = d.a.(i).(col) in
      if not (Rat.is_zero f) then begin
        d.bval.(i) <- Rat.sub d.bval.(i) (Rat.mul f d.bval.(row));
        for j = 0 to n - 1 do
          if j <> col then
            d.a.(i).(j) <- Rat.sub d.a.(i).(j) (Rat.mul f d.a.(row).(j))
        done;
        d.a.(i).(col) <- Rat.neg (Rat.mul f d.a.(row).(col))
      end
    end
  done;
  (* and into the objective *)
  let f = d.obj.(col) in
  if not (Rat.is_zero f) then begin
    d.obj0 <- Rat.add d.obj0 (Rat.mul f d.bval.(row));
    for j = 0 to n - 1 do
      if j <> col then
        d.obj.(j) <- Rat.sub d.obj.(j) (Rat.mul f d.a.(row).(j))
    done;
    d.obj.(col) <- Rat.neg (Rat.mul f d.a.(row).(col))
  end;
  d.basis.(row) <- entering;
  d.nonbasis.(col) <- leaving

(* One phase of the simplex on a feasible dictionary. *)
let optimize d =
  let m = Array.length d.bval and n = Array.length d.obj in
  let rec step () =
    (* Bland: entering = smallest-id nonbasic with positive reduced cost *)
    let enter = ref (-1) in
    for j = n - 1 downto 0 do
      if Rat.sign d.obj.(j) > 0 then
        if !enter = -1 || d.nonbasis.(j) < d.nonbasis.(!enter) then enter := j
    done;
    if !enter = -1 then `Optimal
    else begin
      let col = !enter in
      (* leaving: min ratio bval/a over rows with positive coefficient *)
      let leave = ref (-1) in
      let best = ref Rat.zero in
      for i = 0 to m - 1 do
        let coef = d.a.(i).(col) in
        if Rat.sign coef > 0 then begin
          let ratio = Rat.div d.bval.(i) coef in
          let better =
            !leave = -1
            || Rat.compare ratio !best < 0
            || (Rat.equal ratio !best && d.basis.(i) < d.basis.(!leave))
          in
          if better then begin
            leave := i;
            best := ratio
          end
        end
      done;
      if !leave = -1 then `Unbounded
      else begin
        pivot d ~row:!leave ~col;
        step ()
      end
    end
  in
  step ()

(* Build the nonneg-variable system over [dim] free dimensions: every
   x_k becomes u_k - w_k with u, w >= 0.  The objective is left zero;
   [set_objective] installs one once the dictionary is feasible. *)
let build dim cons =
  let cons =
    List.concat_map
      (fun (c : Constr.t) ->
        assert (Constr.dim c = dim);
        (* v.x + cst >= 0  <=>  -v.x <= cst ; equalities give both rows *)
        match c.Constr.kind with
        | Constr.Ge -> [ (Array.map (fun x -> -x) c.Constr.v, c.Constr.c) ]
        | Constr.Eq ->
            [ (Array.map (fun x -> -x) c.Constr.v, c.Constr.c);
              (Array.copy c.Constr.v, -c.Constr.c) ])
      cons
  in
  let m = List.length cons in
  let n = 2 * dim in
  let a = Array.make_matrix m n Rat.zero in
  let bval = Array.make m Rat.zero in
  List.iteri
    (fun i (row, rhs) ->
      bval.(i) <- Rat.of_int rhs;
      Array.iteri
        (fun k v ->
          a.(i).(k) <- Rat.of_int v;
          a.(i).(dim + k) <- Rat.of_int (-v))
        row)
    cons;
  (* variable ids: 0..n-1 = structural, n..n+m-1 = slacks *)
  { basis = Array.init m (fun i -> n + i);
    nonbasis = Array.init n (fun j -> j);
    a;
    bval;
    obj = Array.make n Rat.zero;
    obj0 = Rat.zero }

(* Phase 1: make the dictionary feasible with an auxiliary variable. *)
let make_feasible d =
  let m = Array.length d.bval and n = Array.length d.obj in
  let worst = ref (-1) in
  for i = 0 to m - 1 do
    if
      Rat.sign d.bval.(i) < 0
      && (!worst = -1 || Rat.compare d.bval.(i) d.bval.(!worst) < 0)
    then worst := i
  done;
  if !worst = -1 then true (* already feasible *)
  else begin
    (* auxiliary dictionary: add x0 (id max_int) with column -1
       everywhere; objective becomes -x0 *)
    let aux_col = n in
    let a' = Array.map (fun row -> Array.append row [| Rat.minus_one |]) d.a in
    let obj' = Array.append (Array.map (fun _ -> Rat.zero) d.obj) [| Rat.minus_one |] in
    let d' =
      { basis = Array.copy d.basis;
        nonbasis = Array.append (Array.copy d.nonbasis) [| max_int |];
        a = a';
        bval = Array.copy d.bval;
        obj = obj';
        obj0 = Rat.zero }
    in
    pivot d' ~row:!worst ~col:aux_col;
    (match optimize d' with `Optimal | `Unbounded -> ());
    if not (Rat.is_zero d'.obj0) then false (* optimum of -x0 below 0 *)
    else begin
      (* if x0 is still basic (degenerate), pivot it out *)
      (match
         Array.to_seq d'.basis
         |> Seq.mapi (fun i v -> (i, v))
         |> Seq.find (fun (_, v) -> v = max_int)
       with
      | Some (row, _) ->
          let col = ref (-1) in
          Array.iteri
            (fun j _ ->
              if !col = -1 && d'.nonbasis.(j) <> max_int
                 && not (Rat.is_zero d'.a.(row).(j))
              then col := j)
            d'.nonbasis;
          if !col >= 0 then pivot d' ~row ~col:!col
      | None -> ());
      (* copy back, dropping x0's column *)
      let keep = ref [] in
      Array.iteri
        (fun j v -> if v <> max_int then keep := (j, v) :: !keep)
        d'.nonbasis;
      let keep = Array.of_list (List.rev !keep) in
      Array.iteri (fun jj (j, v) ->
          d.nonbasis.(jj) <- v;
          Array.iteri (fun i _ -> d.a.(i).(jj) <- d'.a.(i).(j)) d.bval)
        keep;
      Array.blit d'.basis 0 d.basis 0 (Array.length d.basis);
      Array.blit d'.bval 0 d.bval 0 (Array.length d.bval);
      true
    end
  end

(* Express [objective] over the current nonbasis: nonbasic structural
   variables contribute directly, basic ones substitute their row. *)
let set_objective d (objective : Affine.t) =
  let dim = Affine.dim objective in
  let coef_of_var v =
    if v < dim then objective.Affine.coeffs.(v)
    else if v < 2 * dim then Rat.neg objective.Affine.coeffs.(v - dim)
    else Rat.zero
  in
  let m = Array.length d.bval and n = Array.length d.obj in
  Array.fill d.obj 0 n Rat.zero;
  d.obj0 <- objective.Affine.const;
  Array.iteri
    (fun j v ->
      let c = coef_of_var v in
      if not (Rat.is_zero c) then d.obj.(j) <- Rat.add d.obj.(j) c)
    d.nonbasis;
  for i = 0 to m - 1 do
    let c = coef_of_var d.basis.(i) in
    if not (Rat.is_zero c) then begin
      d.obj0 <- Rat.add d.obj0 (Rat.mul c d.bval.(i));
      for j = 0 to n - 1 do
        d.obj.(j) <- Rat.sub d.obj.(j) (Rat.mul c d.a.(i).(j))
      done
    end
  done

(* A feasible dictionary for [cons], or [None] when phase 1 proves the
   system infeasible. *)
let phase1 dim cons =
  let d = build dim cons in
  if make_feasible d then Some d else None

(* Phase 2 from a feasible dictionary; [d] is consumed. *)
let phase2 d objective =
  set_objective d objective;
  match optimize d with `Optimal -> Opt d.obj0 | `Unbounded -> Unbounded

let copy d =
  { d with
    basis = Array.copy d.basis;
    nonbasis = Array.copy d.nonbasis;
    a = Array.map Array.copy d.a;
    bval = Array.copy d.bval;
    obj = Array.copy d.obj }

let maximize cons objective =
  match phase1 (Affine.dim objective) cons with
  | None -> Infeasible
  | Some d -> phase2 d objective

let minimize cons objective =
  match maximize cons (Affine.neg objective) with
  | Opt v -> Opt (Rat.neg v)
  | (Unbounded | Infeasible) as r -> r

let bounds cons objective =
  match phase1 (Affine.dim objective) cons with
  | None -> None
  | Some d ->
      let extreme d objective =
        match phase2 d objective with Opt v -> Some v | _ -> None
      in
      let hi = extreme (copy d) objective in
      let lo = Option.map Rat.neg (extreme d (Affine.neg objective)) in
      Some (lo, hi)

let feasible dim cons = phase1 dim cons <> None
