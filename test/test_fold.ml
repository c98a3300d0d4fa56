(* Tests for the folding stage (paper §5): exact recognition of the
   domains loop nests produce, label (SCEV) functions, boundary splits,
   over-approximation, and round-trip properties. *)

module P = Minisl.Polyhedron
module A = Minisl.Affine
module Rat = Pp_util.Rat

let enumerate_rect w h f =
  let pts = ref [] in
  for x = 0 to w - 1 do
    for y = 0 to h - 1 do
      pts := ([| x; y |], f x y) :: !pts
    done
  done;
  List.rev !pts

let all_exact_affine pieces =
  List.for_all
    (fun (p : Fold.piece) ->
      p.Fold.exact && Array.for_all Option.is_some p.Fold.labels)
    pieces

let covers pieces pts =
  List.for_all
    (fun (c, _) -> List.exists (fun (p : Fold.piece) -> P.mem p.Fold.dom c) pieces)
    pts

let labels_reproduce pieces pts =
  List.for_all
    (fun (c, l) ->
      List.exists
        (fun (p : Fold.piece) ->
          P.mem p.Fold.dom c
          && Array.for_all2
               (fun f lv ->
                 match f with
                 | Some f -> Rat.equal (A.eval f c) (Rat.of_int lv)
                 | None -> true)
               p.Fold.labels l)
        pieces)
    pts

let test_rectangle () =
  let pts = enumerate_rect 6 9 (fun x y -> [| (3 * x) + y + 5 |]) in
  let pieces = Fold.fold_points ~dim:2 ~label_dim:1 pts in
  Alcotest.(check int) "one piece" 1 (List.length pieces);
  Alcotest.(check bool) "exact affine" true (all_exact_affine pieces);
  Alcotest.(check bool) "labels reproduce" true (labels_reproduce pieces pts);
  let p = List.hd pieces in
  Alcotest.(check int) "count" 54 (P.count p.Fold.dom)

let test_triangle () =
  (* for i in 0..n, j in 0..i: the paper's Fig. 4 shape *)
  let pts = ref [] in
  for i = 0 to 7 do
    for j = 0 to i do
      pts := ([| i; j |], [| i - j |]) :: !pts
    done
  done;
  let pts = List.rev !pts in
  let pieces = Fold.fold_points ~dim:2 ~label_dim:1 pts in
  Alcotest.(check int) "one piece" 1 (List.length pieces);
  Alcotest.(check bool) "exact" true (all_exact_affine pieces);
  let p = List.hd pieces in
  Alcotest.(check bool) "triangular bound present" true
    (P.mem p.Fold.dom [| 5; 5 |] && not (P.mem p.Fold.dom [| 5; 6 |]))

let test_trapezoid () =
  (* j from i to i+3: sliding window *)
  let pts = ref [] in
  for i = 0 to 9 do
    for j = i to i + 3 do
      pts := ([| i; j |], [||]) :: !pts
    done
  done;
  let pieces = Fold.fold_points ~dim:2 ~label_dim:0 (List.rev !pts) in
  Alcotest.(check int) "one piece" 1 (List.length pieces);
  Alcotest.(check bool) "exact" true (all_exact_affine pieces)

let test_boundary_split () =
  (* the Table 2 / lavaMD pattern: producer is (i, j-1) except at j = 0
     where it is (i-1, jmax) *)
  let pts = ref [] in
  for i = 1 to 6 do
    for j = 0 to 4 do
      let lbl = if j = 0 then [| i - 1; 4 |] else [| i; j - 1 |] in
      pts := ([| i; j |], lbl) :: !pts
    done
  done;
  let pieces = Fold.fold_points ~dim:2 ~label_dim:2 (List.rev !pts) in
  Alcotest.(check bool) "2-4 exact pieces" true
    (List.length pieces >= 2 && List.length pieces <= 4);
  Alcotest.(check bool) "all exact affine" true (all_exact_affine pieces);
  Alcotest.(check bool) "labels reproduce" true
    (labels_reproduce pieces (List.rev !pts))

let test_holes_over_approximate () =
  (* only even points: a lattice, which folding over-approximates *)
  let pts = ref [] in
  for x = 0 to 20 do
    if x mod 2 = 0 then pts := ([| x |], [||]) :: !pts
  done;
  let pieces = Fold.fold_points ~dim:1 ~label_dim:0 (List.rev !pts) in
  Alcotest.(check bool) "covers all points" true (covers pieces (List.rev !pts));
  Alcotest.(check bool) "not exact (or many pieces)" true
    (List.exists (fun (p : Fold.piece) -> not p.Fold.exact) pieces
    || List.length pieces > 4)

let test_nonaffine_labels_top () =
  let pts = List.init 40 (fun x -> ([| x |], [| x * x |])) in
  let pieces = Fold.fold_points ~dim:1 ~label_dim:1 pts in
  (* the domain is a dense interval: foldable; the labels are not *)
  Alcotest.(check bool) "covers" true (covers pieces pts);
  Alcotest.(check bool) "labels are top somewhere" true
    (List.exists
       (fun (p : Fold.piece) -> Array.exists Option.is_none p.Fold.labels)
       pieces)

let test_per_component_top () =
  (* one affine component, one wild: only the wild one becomes top *)
  let pts = List.init 200 (fun x -> ([| x |], [| (2 * x) + 1; (x * x * x) mod 101 |])) in
  let pieces = Fold.fold_points ~dim:1 ~label_dim:2 pts in
  let p = List.hd pieces in
  Alcotest.(check bool) "first component affine" true
    (Option.is_some p.Fold.labels.(0));
  Alcotest.(check bool) "second component top" true
    (List.exists
       (fun (p : Fold.piece) -> Option.is_none p.Fold.labels.(1))
       pieces)

let test_scalar_context () =
  let pieces = Fold.fold_points ~dim:0 ~label_dim:1 [ ([||], [| 42 |]) ] in
  Alcotest.(check int) "one piece" 1 (List.length pieces);
  Alcotest.(check bool) "exact" true (all_exact_affine pieces)

let test_streaming_cap () =
  (* past the cap the collector switches to streaming boxes *)
  let c = Fold.Collector.create ~cap:100 ~dim:1 ~label_dim:1 () in
  for x = 0 to 999 do
    Fold.Collector.add c [| x |] [| (5 * x) + 2 |]
  done;
  Alcotest.(check int) "all points counted" 1000 (Fold.Collector.npoints c);
  match Fold.Collector.result c with
  | [ p ] ->
      Alcotest.(check bool) "approx" true (not p.Fold.exact);
      Alcotest.(check bool) "box covers" true
        (P.mem p.Fold.dom [| 0 |] && P.mem p.Fold.dom [| 999 |]);
      (* the label function survived streaming verification *)
      Alcotest.(check bool) "label still affine" true
        (Option.is_some p.Fold.labels.(0))
  | ps -> Alcotest.fail (Printf.sprintf "expected one box, got %d" (List.length ps))

let test_streaming_cap_label_violation () =
  let c = Fold.Collector.create ~cap:50 ~dim:1 ~label_dim:1 () in
  for x = 0 to 199 do
    Fold.Collector.add c [| x |] [| x * x |]
  done;
  match Fold.Collector.result c with
  | [ p ] ->
      Alcotest.(check bool) "label degraded to top" true
        (Option.is_none p.Fold.labels.(0))
  | _ -> Alcotest.fail "expected one box"

let test_under_approximation () =
  (* a holey domain over-approximates but keeps a certified inner box
     from its dense prefix *)
  let pts = ref [] in
  for x = 0 to 40 do
    if x < 20 || x mod 3 = 0 then pts := ([| x |], [||]) :: !pts
  done;
  let pieces = Fold.fold_points ~dim:1 ~label_dim:0 (List.rev !pts) in
  let approx = List.filter (fun (p : Fold.piece) -> not p.Fold.exact) pieces in
  match approx with
  | [] -> () (* folded exactly after all: fine *)
  | ps ->
      Alcotest.(check bool) "some approx piece has an under-approximation"
        true
        (List.exists (fun (p : Fold.piece) -> p.Fold.under <> None) ps);
      List.iter
        (fun (p : Fold.piece) ->
          match p.Fold.under with
          | Some u ->
              (* the under-approximation is inside the over-approximation
                 and contains only genuinely iterated points *)
              Alcotest.(check bool) "under inside over" true
                (Minisl.Polyhedron.is_subset u p.Fold.dom);
              List.iter
                (fun pt ->
                  Alcotest.(check bool) "under point was iterated" true
                    (List.exists (fun (q, _) -> q = pt) (List.rev !pts)))
                (Minisl.Polyhedron.integer_points u)
          | None -> ())
        ps

let test_strided_label () =
  (* stride-17 addresses: affine with coefficient 17, the SCEV shape *)
  let pts = List.init 50 (fun x -> ([| x |], [| (17 * x) + 1000 |])) in
  let pieces = Fold.fold_points ~dim:1 ~label_dim:1 pts in
  Alcotest.(check int) "one piece" 1 (List.length pieces);
  match (List.hd pieces).Fold.labels.(0) with
  | Some f ->
      Alcotest.(check bool) "coefficient 17" true
        (Rat.equal f.A.coeffs.(0) (Rat.of_int 17))
  | None -> Alcotest.fail "label lost"

let test_3d_triangle () =
  (* a 3-D nest with two triangular dimensions *)
  let pts = ref [] in
  for a = 0 to 5 do
    for b = 0 to a do
      for c = b to 5 do
        pts := ([| a; b; c |], [| (2 * a) - b + (3 * c) |]) :: !pts
      done
    done
  done;
  let pts = List.rev !pts in
  let pieces = Fold.fold_points ~dim:3 ~label_dim:1 pts in
  Alcotest.(check int) "one piece" 1 (List.length pieces);
  Alcotest.(check bool) "exact" true (all_exact_affine pieces);
  Alcotest.(check bool) "labels reproduce" true (labels_reproduce pieces pts);
  let p = List.hd pieces in
  Alcotest.(check int) "count" (List.length pts) (P.count p.Fold.dom)

let test_multi_component_labels () =
  (* a dependence-style stream: two label components, both affine *)
  let pts = ref [] in
  for x = 0 to 9 do
    for y = 0 to 9 do
      pts := ([| x; y |], [| x - 1; y + 2 |]) :: !pts
    done
  done;
  let pts = List.rev !pts in
  let pieces = Fold.fold_points ~dim:2 ~label_dim:2 pts in
  Alcotest.(check int) "one piece" 1 (List.length pieces);
  let p = List.hd pieces in
  (match (p.Fold.labels.(0), p.Fold.labels.(1)) with
  | Some f0, Some f1 ->
      Alcotest.(check bool) "x - 1" true
        (Rat.equal (A.eval f0 [| 5; 3 |]) (Rat.of_int 4));
      Alcotest.(check bool) "y + 2" true
        (Rat.equal (A.eval f1 [| 5; 3 |]) (Rat.of_int 5))
  | _ -> Alcotest.fail "labels lost")

(* properties: fold of a random affine nest round-trips *)

let arb_nest =
  QCheck.make
    QCheck.Gen.(
      map
        (fun (w, h, (a, b, c)) -> (1 + w, 1 + h, a - 4, b - 4, c - 50))
        (triple (int_bound 8) (int_bound 8)
           (triple (int_bound 9) (int_bound 9) (int_bound 100))))

let prop_fold_rect_roundtrip =
  QCheck.Test.make ~name:"fold(rect) is one exact piece with exact labels"
    ~count:100 arb_nest (fun (w, h, a, b, c) ->
      let pts = enumerate_rect w h (fun x y -> [| (a * x) + (b * y) + c |]) in
      let pieces = Fold.fold_points ~dim:2 ~label_dim:1 pts in
      List.length pieces = 1
      && all_exact_affine pieces
      && labels_reproduce pieces pts
      && P.count (List.hd pieces).Fold.dom = w * h)

let prop_fold_covers =
  QCheck.Test.make ~name:"fold always covers its input" ~count:100
    (QCheck.list_of_size (QCheck.Gen.int_range 1 60)
       (QCheck.pair (QCheck.int_bound 30) (QCheck.int_bound 9)))
    (fun raw ->
      (* arbitrary (possibly duplicated/holey) point stream in 1-D with a
         noisy label *)
      let seen = Hashtbl.create 16 in
      let pts =
        List.filter_map
          (fun (x, l) ->
            if Hashtbl.mem seen x then None
            else begin
              Hashtbl.add seen x ();
              Some ([| x |], [| l |])
            end)
          raw
      in
      QCheck.assume (pts <> []);
      let pieces = Fold.fold_points ~dim:1 ~label_dim:1 pts in
      covers pieces pts)

(* Coordinates and labels past the exact-arithmetic range degrade the
   fold to a bounding box with top labels instead of raising. *)
let test_overflow_degrades () =
  let pts = List.init 5 (fun i -> ([| (1 lsl 61) + i |], [| 3 * i |])) in
  match Fold.fold_points ~dim:1 ~label_dim:1 pts with
  | [ p ] ->
      Alcotest.(check bool) "approx" false p.Fold.exact;
      Alcotest.(check int) "points" 5 p.Fold.points;
      Alcotest.(check bool) "labels top" true
        (Array.for_all Option.is_none p.Fold.labels);
      Alcotest.(check bool) "no under-approximation" true (p.Fold.under = None);
      Alcotest.(check bool) "box covers" true (covers [ p ] pts);
      Alcotest.(check bool) "box is tight" false
        (P.mem p.Fold.dom [| (1 lsl 61) + 5 |])
  | ps -> Alcotest.fail (Printf.sprintf "expected one box, got %d" (List.length ps))

let test_streaming_label_overflow () =
  (* past the cap, a label check whose evaluation overflows turns that
     component top; the other component keeps its fit *)
  let c = Fold.Collector.create ~cap:8 ~dim:1 ~label_dim:2 () in
  for x = 0 to 9 do
    Fold.Collector.add c [| x |] [| (5 * x) + 2; x + 1 |]
  done;
  Fold.Collector.add c [| 1 lsl 61 |] [| 0; (1 lsl 61) + 1 |];
  match Fold.Collector.result c with
  | [ p ] ->
      Alcotest.(check bool) "overflowing component top" true
        (Option.is_none p.Fold.labels.(0));
      Alcotest.(check bool) "other component affine" true
        (Option.is_some p.Fold.labels.(1))
  | _ -> Alcotest.fail "expected one box"

(* Random loop nests: 2-D i in [0, a], j in [lo(i), hi(i)], and 3-D with
   k in [lo(j), hi(j)] on top; each bound is [b + s * outer] with b >= 0
   and s in {0, 1}, widened where needed so that no row is empty.  These are the
   rectangles, triangles (both ways) and trapezoids loop nests emit. *)
let arb_loop_nest =
  let bound =
    QCheck.Gen.(quad (int_bound 6) (int_bound 1) (int_bound 1) (int_bound 3))
  in
  QCheck.make
    ~print:(fun (three, a, (b, s, t, w), (b', s', t', w'), (p, q, r, c)) ->
      Printf.sprintf "3d=%b a=%d j:(%d,%d,%d,%d) k:(%d,%d,%d,%d) l:(%d,%d,%d,%d)"
        three a b s t w b' s' t' w' p q r c)
    QCheck.Gen.(
      map
        (fun ((three, a), (bj, bk), (p, q, r, c)) ->
          (three, a, bj, bk, (p - 3, q - 3, r - 3, c)))
        (triple (pair bool (int_range 0 6)) (pair bound bound)
           (quad (int_bound 6) (int_bound 6) (int_bound 6) (int_bound 20))))

(* the nest's points in loop order, outer loop reversed when [rev] *)
let nest_stream ~rev (three, a, (b, s, t, w), (b', s', t', w'), (p, q, r, c)) =
  let range (b, s, t, w) outer extent =
    (* keep hi >= lo on every row: hi - lo = w + (t - s) * outer, the
       outer value is non-negative and at most [extent]
       (j <= 15 < 25) *)
    let w = if t < s then w + extent else w in
    (b + (s * outer), b + w + (t * outer))
  in
  let pts = ref [] in
  let outer = List.init (a + 1) (fun i -> if rev then a - i else i) in
  List.iter
    (fun i ->
      let jlo, jhi = range (b, s, t, w) i a in
      for j = jlo to jhi do
        if three then begin
          let klo, khi = range (b', s', t', w') j 25 in
          for k = klo to khi do
            pts := ([| i; j; k |], [| (p * i) + (q * j) + (r * k) + c; i - k |]) :: !pts
          done
        end
        else pts := ([| i; j |], [| (p * i) + (q * j) + c; j |]) :: !pts
      done)
    outer;
  ((if three then 3 else 2), List.rev !pts)

let prop_nest_one_exact_piece =
  QCheck.Test.make
    ~name:"lexicographic loop nests fold to one exact piece" ~count:150
    arb_loop_nest (fun nest ->
      let dim, pts = nest_stream ~rev:false nest in
      let pieces = Fold.fold_points ~dim ~label_dim:2 pts in
      List.length pieces = 1
      && all_exact_affine pieces
      && labels_reproduce pieces pts
      && P.count (List.hd pieces).Fold.dom = List.length pts)

let prop_nest_reversed_outer =
  QCheck.Test.make
    ~name:"nests with a reversed outer loop still cover and reproduce"
    ~count:150 arb_loop_nest (fun nest ->
      let dim, pts = nest_stream ~rev:true nest in
      let pieces = Fold.fold_points ~dim ~label_dim:2 pts in
      covers pieces pts
      && labels_reproduce pieces pts
      && List.fold_left (fun n (p : Fold.piece) -> n + p.Fold.points) 0 pieces
         = List.length pts)

let test_strided_outer_rational_bound () =
  (* i = 0, 2, .., 10 and j in [0, i/2]: the fitted inner bound has a 1/2
     coefficient, so the nest is checked in rationals *)
  let pts = ref [] in
  for t = 0 to 5 do
    let i = 2 * t in
    for j = 0 to t do
      pts := ([| i; j |], [| (3 * i) + j |]) :: !pts
    done
  done;
  let pts = List.rev !pts in
  let pieces = Fold.fold_points ~dim:2 ~label_dim:1 pts in
  Alcotest.(check bool) "covers" true (covers pieces pts);
  Alcotest.(check bool) "labels reproduce" true (labels_reproduce pieces pts);
  Alcotest.(check int) "points sum to n" (List.length pts)
    (List.fold_left (fun n (p : Fold.piece) -> n + p.Fold.points) 0 pieces);
  List.iter
    (fun (p : Fold.piece) ->
      if p.Fold.exact then
        Alcotest.(check int) "exact piece counts its points" p.Fold.points
          (P.count p.Fold.dom))
    pieces

let () =
  Alcotest.run "fold"
    [ ( "exact",
        [ Alcotest.test_case "rectangle" `Quick test_rectangle;
          Alcotest.test_case "triangle" `Quick test_triangle;
          Alcotest.test_case "trapezoid" `Quick test_trapezoid;
          Alcotest.test_case "boundary split (Table 2)" `Quick
            test_boundary_split;
          Alcotest.test_case "strided label (SCEV)" `Quick test_strided_label;
          Alcotest.test_case "3-D triangles" `Quick test_3d_triangle;
          Alcotest.test_case "multi-component labels" `Quick
            test_multi_component_labels;
          Alcotest.test_case "scalar context" `Quick test_scalar_context;
          Alcotest.test_case "strided outer loop, rational bound" `Quick
            test_strided_outer_rational_bound ] );
      ( "over-approximation",
        [ Alcotest.test_case "lattice holes" `Quick test_holes_over_approximate;
          Alcotest.test_case "non-affine labels" `Quick test_nonaffine_labels_top;
          Alcotest.test_case "per-component top" `Quick test_per_component_top;
          Alcotest.test_case "streaming cap" `Quick test_streaming_cap;
          Alcotest.test_case "streaming label violation" `Quick
            test_streaming_cap_label_violation;
          Alcotest.test_case "under-approximation (paper future work)" `Quick
            test_under_approximation;
          Alcotest.test_case "overflow degrades to a box" `Quick
            test_overflow_degrades;
          Alcotest.test_case "streaming label overflow" `Quick
            test_streaming_label_overflow ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_fold_rect_roundtrip; prop_fold_covers;
            prop_nest_one_exact_piece; prop_nest_reversed_outer ] ) ]
