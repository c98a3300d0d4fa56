module P = Minisl.Polyhedron
module A = Minisl.Affine
module Cstr = Minisl.Constr
module Rat = Pp_util.Rat
module Matrix = Pp_util.Matrix

type piece = {
  dom : P.t;
  labels : A.t option array;
  exact : bool;
  points : int;
  under : P.t option;
      (* for over-approximated domains: a certified exact inner region
         (the paper's §10 future work, "under-approximation schemes in
         the DDG"); [None] when [exact] (the domain is its own under-
         approximation) or when no inner region was recovered *)
}

let piece_label_fn p =
  if Array.for_all Option.is_some p.labels then
    Some (Array.map Option.get p.labels)
  else None

let pp_piece ?names ?label_names fmt p =
  Format.fprintf fmt "%a (%d pts%s%s)" (P.pp ?names) p.dom p.points
    (if p.exact then "" else ", approx")
    (match p.under with None -> "" | Some _ -> ", has under-approx");
  if Array.length p.labels = 0 then ()
  else begin
    Format.fprintf fmt " -> [";
    Array.iteri
      (fun i f ->
        if i > 0 then Format.fprintf fmt ", ";
        (match label_names with
        | Some ns when i < Array.length ns -> Format.fprintf fmt "%s = " ns.(i)
        | _ -> ());
        match f with
        | Some f -> A.pp ?names fmt f
        | None -> Format.fprintf fmt "T")
      p.labels;
    Format.fprintf fmt "]"
  end

(* ------------------------------------------------------------------ *)
(* Compiled affine forms                                                *)
(* ------------------------------------------------------------------ *)

(* A fitted form, evaluated in place on the leading coordinates of a
   point.  When every coefficient is integral it runs on native ints
   through Rat's own checked operations — on denominator-1 operands
   [Rat.add]/[Rat.mul] reduce to exactly those checks, so [Overflow] is
   raised at the same operations as [A.eval] — and otherwise it stays
   rational. *)
type form =
  | Ints of int array * int  (* coefficients of the leading coordinates, constant *)
  | Rats of A.t

let compile ~sub_dim (f : A.t) =
  if Rat.is_integer f.const && Array.for_all Rat.is_integer f.coeffs then
    Ints (Array.init sub_dim (fun k -> Rat.num f.coeffs.(k)), Rat.num f.const)
  else Rats f

let eval_int coeffs const (p : int array) =
  let acc = ref const in
  for k = 0 to Array.length coeffs - 1 do
    acc := Rat.add_checked !acc (Rat.mul_checked coeffs.(k) p.(k))
  done;
  !acc

(* [form p = v] *)
let matches form p v =
  match form with
  | Ints (c, k) -> eval_int c k p = v
  | Rats f -> Rat.equal (A.eval f p) (Rat.of_int v)

(* [compare v (form p)] *)
let compare_at v form p =
  match form with
  | Ints (c, k) -> Int.compare v (eval_int c k p)
  | Rats f -> Rat.compare (Rat.of_int v) (A.eval f p)

let eval_rat form p =
  match form with
  | Ints (c, k) -> Rat.of_int (eval_int c k p)
  | Rats f -> A.eval f p

(* ------------------------------------------------------------------ *)
(* Affine fitting with sampling + verification                         *)
(* ------------------------------------------------------------------ *)

(* Fit an affine function of the [sub_dim] leading coordinates through
   all (point, value) samples, by fitting a small sample then verifying
   the rest; points failing verification are added to the sample and the
   fit is retried a bounded number of times.  The result lives in a
   [full_dim]-dimensional space. *)
let fit_affine ~sub_dim ~full_dim (points : int array array)
    (values : int array) : A.t option =
  let n = Array.length points in
  if n = 0 then None
  else begin
    let rec attempt round idxs =
      if round > sub_dim + 4 then None
      else begin
        let pts = Array.of_list (List.map (fun i -> Array.sub points.(i) 0 sub_dim) idxs) in
        let vals = Array.of_list (List.map (fun i -> Rat.of_int values.(i)) idxs) in
        match Matrix.affine_fit pts vals with
        | None -> None
        | Some (coeffs, const) ->
            let f = A.make coeffs const in
            let form = compile ~sub_dim f in
            (* verify on the full set *)
            let rec first_bad i =
              if i = n then None
              else if matches form points.(i) values.(i) then first_bad (i + 1)
              else Some i
            in
            match first_bad 0 with
            | None -> Some (A.extend f full_dim)
            | Some bad -> attempt (round + 1) (bad :: idxs)
      end
    in
    attempt 0 (List.init (min n (sub_dim + 2)) Fun.id)
  end

(* ------------------------------------------------------------------ *)
(* Prefix grouping                                                      *)
(* ------------------------------------------------------------------ *)

(* The points grouped by their prefix c_0..c_{d-1}, in first-appearance
   order: per group a representative point and the min and max of c_d,
   and per point the index of its group. *)
type groups = {
  reps : int array array;
  lo : int array;
  hi : int array;
  group_of : int array;
}

let compare_prefix d (a : int array) (b : int array) =
  let rec go k =
    if k = d then 0
    else
      let c = Int.compare a.(k) b.(k) in
      if c <> 0 then c else go (k + 1)
  in
  go 0

(* Loop nests emit their prefixes in strictly increasing lexicographic
   order, so each group is one run of consecutive points and a linear
   scan finds them; any other order falls back to hashing the prefixes. *)
let group_prefixes d (points : int array array) =
  let n = Array.length points in
  let group_of = Array.make n 0 in
  let rec sorted i g =
    if i = n then true
    else
      let c = compare_prefix d points.(i - 1) points.(i) in
      if c > 0 then false
      else begin
        let g = if c < 0 then g + 1 else g in
        group_of.(i) <- g;
        sorted (i + 1) g
      end
  in
  let ngroups =
    if n = 0 then 0
    else if sorted 1 0 then group_of.(n - 1) + 1
    else begin
      let tbl : (int list, int) Hashtbl.t = Hashtbl.create 64 in
      Array.iteri
        (fun i p ->
          let key = Array.to_list (Array.sub p 0 d) in
          group_of.(i) <-
            (match Hashtbl.find_opt tbl key with
            | Some g -> g
            | None ->
                let g = Hashtbl.length tbl in
                Hashtbl.add tbl key g;
                g))
        points;
      Hashtbl.length tbl
    end
  in
  (* groups are numbered in first-appearance order, so a group's first
     point is the one whose index is the next number *)
  let reps = Array.make ngroups [||] in
  let lo = Array.make ngroups 0 and hi = Array.make ngroups 0 in
  let seen = ref 0 in
  Array.iteri
    (fun i (p : int array) ->
      let g = group_of.(i) in
      if g = !seen then begin
        incr seen;
        reps.(g) <- p;
        lo.(g) <- p.(d);
        hi.(g) <- p.(d)
      end
      else begin
        if p.(d) < lo.(g) then lo.(g) <- p.(d);
        if p.(d) > hi.(g) then hi.(g) <- p.(d)
      end)
    points;
  { reps; lo; hi; group_of }

(* ------------------------------------------------------------------ *)
(* Nest fitting: lo_d(outer) <= c_d <= hi_d(outer) with affine bounds   *)
(* ------------------------------------------------------------------ *)

type nest = {
  bnds : (A.t * A.t) array;  (* per dim, over the full space *)
  forms : (form * form) array;  (* the same bounds, compiled *)
}

let fit_domain ~dim (points : int array array) : nest option =
  let rec fit d acc =
    if d = dim then
      let bnds = Array.of_list (List.rev acc) in
      Some
        { bnds;
          forms =
            Array.mapi
              (fun d (lo_f, hi_f) ->
                (compile ~sub_dim:d lo_f, compile ~sub_dim:d hi_f))
              bnds }
    else
      let g = group_prefixes d points in
      match fit_affine ~sub_dim:d ~full_dim:dim g.reps g.lo with
      | None -> None
      | Some lo_f -> (
          match fit_affine ~sub_dim:d ~full_dim:dim g.reps g.hi with
          | None -> None
          | Some hi_f -> fit (d + 1) ((lo_f, hi_f) :: acc))
  in
  if Array.length points = 0 then None else fit 0 []

(* Count the integer points implied by the nest, aborting early past
   [limit]. *)
let implied_count ~dim nest ~limit =
  let exception Too_many in
  let prefix = Array.make dim 0 in
  let work = ref 0 in
  let rec go d =
    if d = dim then 1
    else begin
      let lo_f, hi_f = nest.forms.(d) in
      let lo = Rat.ceil (eval_rat lo_f prefix) in
      let hi = Rat.floor (eval_rat hi_f prefix) in
      (* bound the sheer iteration count too: extrapolated bounds on
         prefixes absent from the data can span huge empty ranges *)
      if hi - lo > limit then raise Too_many;
      let total = ref 0 in
      for v = lo to hi do
        incr work;
        if !work > 4 * (limit + dim + 1) then raise Too_many;
        prefix.(d) <- v;
        total := !total + go (d + 1);
        if !total > limit then raise Too_many
      done;
      prefix.(d) <- 0;
      !total
    end
  in
  try Some (go 0) with Too_many -> None

let point_in_nest ~dim nest p =
  let ok = ref true in
  for d = 0 to dim - 1 do
    let lo_f, hi_f = nest.forms.(d) in
    if compare_at p.(d) lo_f p < 0 || compare_at p.(d) hi_f p > 0 then
      ok := false
  done;
  !ok

let nest_to_polyhedron ~dim nest =
  let cons = ref [] in
  for d = 0 to dim - 1 do
    let lo_f, hi_f = nest.bnds.(d) in
    let v = A.var ~dim d in
    cons := Cstr.of_affine Ge (A.sub v lo_f) :: Cstr.of_affine Ge (A.sub hi_f v) :: !cons
  done;
  P.make dim !cons

(* The [k]th label component of every point. *)
let label_values labels k = Array.map (fun (l : int array) -> l.(k)) labels

(* Exact fit of a segment: affine-bounded nest + affine labels.  With
   [strict:false] individual label components may come out as top. *)
let fit_segment ?(strict = true) ~dim ~label_dim (points : int array array)
    (labels : int array array) lo len : piece option =
  let pts = Array.sub points lo len in
  let lbs = Array.sub labels lo len in
  if dim = 0 then begin
    (* scalar context: a single execution; several executions of a
       0-dimensional statement cannot be folded exactly *)
    if len <> 1 then None
    else
      Some
        { dom = P.universe 0;
          labels =
            Array.map (fun v -> Some (A.const ~dim:0 (Rat.of_int v))) lbs.(0);
          exact = true;
          points = 1;
          under = None }
  end
  else
    match fit_domain ~dim pts with
    | None -> None
    | Some nest ->
        if not (Array.for_all (point_in_nest ~dim nest) pts) then None
        else if implied_count ~dim nest ~limit:len <> Some len then None
        else begin
          let lfs =
            Array.init label_dim (fun k ->
                fit_affine ~sub_dim:dim ~full_dim:dim pts (label_values lbs k))
          in
          if strict && not (Array.for_all Option.is_some lfs) then None
          else
            Some
              { dom = nest_to_polyhedron ~dim nest;
                labels = lfs;
                exact = true;
                points = len;
                under = None }
        end

let box_piece ~dim ~label_dim (points : int array array)
    (labels : int array array) =
  let dom =
    if Array.length points = 0 then P.empty dim
    else Minisl.Hull.box_of_points (Array.to_list points)
  in
  let lfs =
    Array.init label_dim (fun k ->
        fit_affine ~sub_dim:dim ~full_dim:dim points (label_values labels k))
  in
  (* under-approximation: the longest exactly-foldable prefix of the
     stream certifies an inner region that is definitely iterated *)
  let under =
    if dim = 0 || Array.length points < 2 then None
    else begin
      let n = Array.length points in
      let fits len =
        fit_segment ~strict:false ~dim ~label_dim points labels 0 len
      in
      let len = ref 1 in
      while (2 * !len <= n) && fits (2 * !len) <> None do
        len := 2 * !len
      done;
      match fits !len with
      | Some p when !len > 1 -> Some p.dom
      | _ -> None
    end
  in
  { dom; labels = lfs; exact = false; points = Array.length points; under }

(* Split a stream by a per-dimension boundary predicate: points at the
   first (or, with [last], the last) iteration of dim [d] within their
   prefix versus the rest, each in stream order.  This captures the
   classic boundary pieces of dependence relations — e.g. a reduction
   whose first inner iteration reads the previous outer iteration's
   result (paper Table 2: the I4->I4 dependence holds on ck >= 1 only). *)
let split_boundary_iteration ~last ((points : int array array), labels) d =
  let g = group_prefixes d points in
  let extreme = if last then g.hi else g.lo in
  let on_boundary i = points.(i).(d) = extreme.(g.group_of.(i)) in
  let select keep =
    let idx =
      List.filter
        (fun i -> on_boundary i = keep)
        (List.init (Array.length points) Fun.id)
    in
    ( Array.of_list (List.map (fun i -> points.(i)) idx),
      Array.of_list (List.map (fun i -> labels.(i)) idx) )
  in
  (select true, select false)

let fold_exact ?(boundary_splits = true) ~dim ~label_dim ~max_pieces points
    labels =
  let n = Array.length points in
  if n = 0 then []
  else
    let fit_part (pts, lbs) =
      fit_segment ~dim ~label_dim pts lbs 0 (Array.length pts)
    in
    (* recursive boundary splitting of a part that does not fit whole,
       innermost dimension first, with a small budget (up to 4 pieces) *)
    let rec split part budget =
      let rec go d last =
        if d < 0 then if last then None else go (dim - 1) true
        else begin
          let ((first, _) as bnd_part), ((rest, _) as rest_part) =
            split_boundary_iteration ~last part d
          in
          if Array.length first = 0 || Array.length rest = 0 then
            go (d - 1) last
          else
            match fit_with_splits bnd_part (budget - 1) with
            | None -> go (d - 1) last
            | Some a -> (
                match fit_with_splits rest_part (budget - 1) with
                | Some b -> Some (a @ b)
                | None -> go (d - 1) last)
        end
      in
      go (dim - 1) false
    and fit_with_splits part budget =
      match fit_part part with
      | Some p -> Some [ p ]
      | None when budget > 0 -> split part budget
      | None -> None
    in
    match fit_segment ~dim ~label_dim points labels 0 n with
    | Some p -> [ p ]
    | None ->
    match
      if dim > 0 && boundary_splits then split (points, labels) 2 else None
    with
    | Some ps -> ps
    | None ->
        (* greedy segmentation with doubling + binary search *)
        let pieces = ref [] in
        let i = ref 0 in
        let too_many = ref false in
        while !i < n && not !too_many do
          let fits len = Option.is_some (fit_segment ~dim ~label_dim points labels !i len) in
          (* grow the segment by doubling + binary search; fits() is not
             monotone (a partial inner row can fail where the next full
             row succeeds), so retry the expansion from each new best
             until it stops improving *)
          let best = ref 1 in
          let improved = ref true in
          while !improved do
            improved := false;
            let len = ref !best in
            while !i + (2 * !len) <= n && fits (2 * !len) do
              len := 2 * !len
            done;
            let lo = ref !len and hi = ref (min (2 * !len) (n - !i)) in
            while !lo < !hi do
              let mid = (!lo + !hi + 1) / 2 in
              if fits mid then lo := mid else hi := mid - 1
            done;
            if !lo > !best then begin
              best := !lo;
              improved := true
            end
          done;
          let best = !best in
          (match fit_segment ~dim ~label_dim points labels !i best with
          | Some p -> pieces := p :: !pieces
          | None -> assert false);
          i := !i + best;
          if List.length !pieces > max_pieces then too_many := true
        done;
        if !too_many then
          (* before giving up the domain, try the whole stream with
             per-component label over-approximation: an exact domain
             whose irregular label components are top *)
          match fit_segment ~strict:false ~dim ~label_dim points labels 0 n with
          | Some p -> [ p ]
          | None -> [ box_piece ~dim ~label_dim points labels ]
        else List.rev !pieces

(* ------------------------------------------------------------------ *)
(* Streaming collector                                                  *)
(* ------------------------------------------------------------------ *)

module Collector = struct
  let obs_points = Obs.Metrics.counter ~help:"dependence points folded into polyhedral pieces" "fold.points"
  let obs_pieces = Obs.Metrics.counter ~help:"polyhedral pieces produced by folding" "fold.pieces"
  let obs_approx = Obs.Metrics.counter ~help:"collectors that overflowed their cap into approx mode" "fold.approx_spills"

  type approx_state = {
    lo : int array;
    hi : int array;
    labels : (A.t * form) option array;  (* still-valid incremental fits *)
  }

  type mode =
    | Buffering of {
        (* the caller's arrays of the points [0, n); grown by doubling *)
        mutable coords : int array array;
        mutable labels : int array array;
      }
    | Approx of approx_state

  type t = {
    dim : int;
    label_dim : int;
    cap : int;
    max_pieces : int;
    boundary_splits : bool;
    per_component : bool;
    mutable n : int;
    mutable mode : mode;
    mutable finalized : piece list option;
  }

  let create ?(cap = 100_000) ?(max_pieces = 16) ?(boundary_splits = true)
      ?(per_component = true) ~dim ~label_dim () =
    { dim;
      label_dim;
      cap;
      max_pieces;
      boundary_splits;
      per_component;
      n = 0;
      mode = Buffering { coords = [||]; labels = [||] };
      finalized = None }

  let npoints t = t.n
  let dim t = t.dim

  let bounding_box (points : int array array) =
    let lo = Array.copy points.(0) and hi = Array.copy points.(0) in
    Array.iter
      (Array.iteri (fun k v ->
           if v < lo.(k) then lo.(k) <- v;
           if v > hi.(k) then hi.(k) <- v))
      points;
    (lo, hi)

  let switch_to_approx t points labels =
    let lo, hi = bounding_box points in
    let fit k =
      match fit_affine ~sub_dim:t.dim ~full_dim:t.dim points (label_values labels k) with
      | Some f -> Some (f, compile ~sub_dim:t.dim f)
      | None | (exception Rat.Overflow) -> None
    in
    t.mode <- Approx { lo; hi; labels = Array.init t.label_dim fit }

  let add t coords label =
    assert (Array.length coords = t.dim && Array.length label = t.label_dim);
    assert (t.finalized = None);
    let i = t.n in
    t.n <- i + 1;
    match t.mode with
    | Buffering b ->
        if i = Array.length b.coords then begin
          let grow a =
            let a' = Array.make (max (i + 1) (min t.cap (max 16 (2 * i)))) [||] in
            Array.blit a 0 a' 0 i;
            a'
          in
          b.coords <- grow b.coords;
          b.labels <- grow b.labels
        end;
        b.coords.(i) <- coords;
        b.labels.(i) <- label;
        (* capacity stops at [max cap 1], so the buffer is exactly full here *)
        if t.n >= t.cap then switch_to_approx t b.coords b.labels
    | Approx st ->
        Array.iteri
          (fun k v ->
            if v < st.lo.(k) then st.lo.(k) <- v;
            if v > st.hi.(k) then st.hi.(k) <- v)
          coords;
        Array.iteri
          (fun k f ->
            match f with
            | Some (_, form) -> (
                match matches form coords label.(k) with
                | true -> ()
                | false | (exception Rat.Overflow) -> st.labels.(k) <- None)
            | None -> ())
          st.labels

  let box_of_bounds dim lo hi =
    let cons = ref [] in
    for k = 0 to dim - 1 do
      let up = Array.make dim 0 and dn = Array.make dim 0 in
      up.(k) <- 1;
      dn.(k) <- -1;
      cons := Cstr.make Ge up (-lo.(k)) :: Cstr.make Ge dn hi.(k) :: !cons
    done;
    P.make dim !cons

  let result t =
    match t.finalized with
    | Some ps -> ps
    | None ->
        let ps =
          match t.mode with
          | Buffering b -> (
              let points = Array.sub b.coords 0 t.n
              and labels = Array.sub b.labels 0 t.n in
              try
                fold_exact ~boundary_splits:t.boundary_splits ~dim:t.dim
                  ~label_dim:t.label_dim ~max_pieces:t.max_pieces points labels
              with Rat.Overflow ->
                (* coordinates or labels too large for exact arithmetic:
                   degrade to the bounding box with every label top *)
                let lo, hi = bounding_box points in
                [ { dom = box_of_bounds t.dim lo hi;
                    labels = Array.make t.label_dim None;
                    exact = false;
                    points = t.n;
                    under = None } ])
          | Approx st ->
              [ { dom = box_of_bounds t.dim st.lo st.hi;
                  labels = Array.map (Option.map fst) st.labels;
                  exact = false;
                  points = t.n;
                  under = None } ]
        in
        let ps =
          if t.per_component then ps
          else
            (* ablation: the paper-style all-or-nothing label
               over-approximation — one irregular component tops them all *)
            List.map
              (fun (p : piece) ->
                if Array.exists Option.is_none p.labels then
                  { p with labels = Array.map (fun _ -> None) p.labels }
                else p)
              ps
        in
        t.finalized <- Some ps;
        if Obs.Registry.enabled () then begin
          Obs.Metrics.add obs_points t.n;
          Obs.Metrics.add obs_pieces (List.length ps);
          match t.mode with
          | Approx _ -> Obs.Metrics.add obs_approx 1
          | Buffering _ -> ()
        end;
        ps

  let is_affine t =
    List.for_all
      (fun p -> p.exact && Array.for_all Option.is_some p.labels)
      (result t)
end

let fold_points ~dim ~label_dim pts =
  let c = Collector.create ~dim ~label_dim () in
  List.iter (fun (p, l) -> Collector.add c p l) pts;
  Collector.result c
