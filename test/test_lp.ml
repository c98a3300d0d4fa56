(* Tests for the exact rational simplex, including cross-validation
   against rational vertex enumeration on random low-dimensional
   polyhedra. *)

module Rat = Pp_util.Rat
module A = Minisl.Affine
module C = Minisl.Constr
module P = Minisl.Polyhedron
module Lp = Minisl.Lp

let box2 a b =
  [ C.make Ge [| 1; 0 |] 0; C.make Ge [| -1; 0 |] a;
    C.make Ge [| 0; 1 |] 0; C.make Ge [| 0; -1 |] b ]

let triangle n =
  [ C.make Ge [| 1; 0 |] 0; C.make Ge [| -1; 0 |] n;
    C.make Ge [| 0; 1 |] 0; C.make Ge [| 1; -1 |] 0 ]

let check_opt name expected = function
  | Lp.Opt v -> Alcotest.(check bool) name true (Rat.equal v (Rat.of_int expected))
  | Lp.Unbounded -> Alcotest.fail (name ^ ": unbounded")
  | Lp.Infeasible -> Alcotest.fail (name ^ ": infeasible")

let test_box () =
  let p = box2 5 7 in
  check_opt "max x" 5 (Lp.maximize p (A.of_int_coeffs [| 1; 0 |] 0));
  check_opt "max x+y" 12 (Lp.maximize p (A.of_int_coeffs [| 1; 1 |] 0));
  check_opt "min x-y" (-7) (Lp.minimize p (A.of_int_coeffs [| 1; -1 |] 0));
  check_opt "constant offset" 15 (Lp.maximize p (A.of_int_coeffs [| 1; 1 |] 3))

let test_triangle () =
  let p = triangle 6 in
  check_opt "max j" 6 (Lp.maximize p (A.of_int_coeffs [| 0; 1 |] 0));
  check_opt "max 2j - i" 6 (Lp.maximize p (A.of_int_coeffs [| -1; 2 |] 0));
  check_opt "min i - j" 0 (Lp.minimize p (A.of_int_coeffs [| 1; -1 |] 0))

let test_negative_orthant () =
  (* a polyhedron entirely in negative coordinates: phase 1 required *)
  let p =
    [ C.make Ge [| -1 |] (-3); C.make Ge [| 1 |] 10 ]
    (* -x - 3 >= 0 (x <= -3) and x + 10 >= 0 (x >= -10) *)
  in
  check_opt "max x" (-3) (Lp.maximize p (A.of_int_coeffs [| 1 |] 0));
  check_opt "min x" (-10) (Lp.minimize p (A.of_int_coeffs [| 1 |] 0))

let test_unbounded () =
  let half = [ C.make Ge [| 1 |] 0 ] in
  Alcotest.(check bool) "max x unbounded" true
    (Lp.maximize half (A.of_int_coeffs [| 1 |] 0) = Lp.Unbounded);
  check_opt "min x" 0 (Lp.minimize half (A.of_int_coeffs [| 1 |] 0))

let test_infeasible () =
  let p = [ C.make Ge [| 1 |] (-5); C.make Ge [| -1 |] 2 ] in
  (* x >= 5 and x <= 2 *)
  Alcotest.(check bool) "infeasible" true
    (Lp.maximize p (A.of_int_coeffs [| 1 |] 0) = Lp.Infeasible)

let test_equalities () =
  (* x + y = 10, 0 <= x <= 4 *)
  let p =
    [ C.make Eq [| 1; 1 |] (-10); C.make Ge [| 1; 0 |] 0;
      C.make Ge [| -1; 0 |] 4 ]
  in
  check_opt "max y" 10 (Lp.maximize p (A.of_int_coeffs [| 0; 1 |] 0));
  check_opt "min y" 6 (Lp.minimize p (A.of_int_coeffs [| 0; 1 |] 0))

let test_rational_vertex () =
  (* 2x + 3y <= 12, 3x + 2y <= 12, x,y >= 0: max x+y at (12/5, 12/5) *)
  let p =
    [ C.make Ge [| -2; -3 |] 12; C.make Ge [| -3; -2 |] 12;
      C.make Ge [| 1; 0 |] 0; C.make Ge [| 0; 1 |] 0 ]
  in
  match Lp.maximize p (A.of_int_coeffs [| 1; 1 |] 0) with
  | Lp.Opt v ->
      Alcotest.(check bool) "24/5" true (Rat.equal v (Rat.make 24 5))
  | _ -> Alcotest.fail "expected optimum"

let test_high_dim_box () =
  (* 8-dimensional box *)
  let n = 8 in
  let cons = ref [] in
  for d = 0 to n - 1 do
    let up = Array.make n 0 and dn = Array.make n 0 in
    up.(d) <- 1;
    dn.(d) <- -1;
    cons := C.make Ge up 0 :: C.make Ge dn (d + 1) :: !cons
  done;
  let p = !cons in
  let all_ones = A.of_int_coeffs (Array.make n 1) 0 in
  check_opt "sum of maxes" 36 (Lp.maximize p all_ones);
  check_opt "min is 0" 0 (Lp.minimize p all_ones)

(* Independent exact reference: the vertices of a bounded polyhedron,
   each solved from a [dim]-subset of its constraints by Cramer's rule in
   [Rat] and kept when it satisfies every constraint.  A bounded
   polyhedron is empty iff it has no vertex, and a linear objective takes
   its extremes at vertices. *)
let rec det m =
  let n = Array.length m in
  if n = 1 then m.(0).(0)
  else begin
    let acc = ref Rat.zero in
    for j = 0 to n - 1 do
      let minor =
        Array.init (n - 1) (fun i ->
            Array.init (n - 1) (fun k ->
                m.(i + 1).(if k < j then k else k + 1)))
      in
      let term = Rat.mul m.(0).(j) (det minor) in
      acc := if j mod 2 = 0 then Rat.add !acc term else Rat.sub !acc term
    done;
    !acc
  end

let rec subsets k = function
  | _ when k = 0 -> [ [] ]
  | [] -> []
  | x :: rest ->
      List.map (fun s -> x :: s) (subsets (k - 1) rest) @ subsets k rest

let vertices dim (cons : C.t list) =
  let sat x c = Rat.sign (A.eval_rat (C.affine c) x) >= 0 in
  List.filter_map
    (fun (rows : C.t list) ->
      let a =
        Array.of_list (List.map (fun (c : C.t) -> Array.map Rat.of_int c.v) rows)
      and b =
        Array.of_list (List.map (fun (c : C.t) -> Rat.of_int (-c.c)) rows)
      in
      let d = det a in
      if Rat.is_zero d then None
      else
        (* Cramer: x_k = det (a with column k replaced by b) / det a *)
        let with_b k i row =
          Array.mapi (fun j r -> if j = k then b.(i) else r) row
        in
        let x =
          Array.init dim (fun k -> Rat.div (det (Array.mapi (with_b k) a)) d)
        in
        if List.for_all (sat x) cons then Some x else None)
    (subsets dim cons)

let prop_lp_equals_vertices =
  let gen =
    QCheck.Gen.(
      let* dim = int_range 2 3 in
      let* ncons = int_range 2 5 in
      let* rows =
        list_size (return ncons)
          (pair (list_size (return dim) (int_range (-3) 3)) (int_range 0 9))
      in
      let* objc = list_size (return dim) (int_range (-3) 3) in
      return (dim, rows, objc))
  in
  QCheck.Test.make ~name:"LP matches vertex enumeration" ~count:300
    (QCheck.make gen) (fun (dim, rows, objc) ->
      (* anchor with a box so every instance is bounded *)
      let base = ref [] in
      for d = 0 to dim - 1 do
        let up = Array.make dim 0 and dn = Array.make dim 0 in
        up.(d) <- 1;
        dn.(d) <- -1;
        base := C.make Ge up 0 :: C.make Ge dn 7 :: !base
      done;
      let cons =
        List.map (fun (v, c) -> C.make Ge (Array.of_list v) c) rows @ !base
      in
      let obj = A.of_int_coeffs (Array.of_list objc) 0 in
      let p = P.make dim cons in
      match List.map (A.eval_rat obj) (vertices dim cons) with
      | [] ->
          Lp.maximize cons obj = Lp.Infeasible
          && Lp.bounds cons obj = None && P.is_empty p
      | v :: vs ->
          let lo = List.fold_left Rat.min v vs
          and hi = List.fold_left Rat.max v vs in
          let agree (l, h) =
            match (l, h) with
            | Some l, Some h -> Rat.equal l lo && Rat.equal h hi
            | _ -> false
          in
          (match Lp.bounds cons obj with Some b -> agree b | None -> false)
          && (not (P.is_empty p))
          && agree (P.bounds p obj))

let () =
  Alcotest.run "lp"
    [ ( "simplex",
        [ Alcotest.test_case "box" `Quick test_box;
          Alcotest.test_case "triangle" `Quick test_triangle;
          Alcotest.test_case "negative orthant (phase 1)" `Quick
            test_negative_orthant;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "equalities" `Quick test_equalities;
          Alcotest.test_case "rational vertex" `Quick test_rational_vertex;
          Alcotest.test_case "8-D box" `Quick test_high_dim_box ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_lp_equals_vertices ]) ]
