type ctx_id =
  | Cblock of int * int
  | Cloop of int * int
  | Ccomp of int

let pp_ctx_id fmt = function
  | Cblock (f, b) -> Format.fprintf fmt "f%d.b%d" f b
  | Cloop (f, l) -> Format.fprintf fmt "f%d.L%d" f l
  | Ccomp c -> Format.fprintf fmt "RC%d" c

type context = ctx_id list list

(* Contexts are interned incrementally.  A context is a token sequence:
   each dimension's stack, outermost element first, closed by a
   separator, then the statement stack.  Every prefix of such a sequence
   is a node of a domain-local trie, and an IIV keeps the node of each
   of its stack elements, so an update costs one child lookup and
   [context_id] one array read once the node has been interned.

   Interned ids are domain-local too, so parallel profiling domains
   replaying the same event stream each intern contexts independently —
   and, since they intern in identical stream order, assign identical
   ids.  The worker that owns the schedule tree snapshots its table and
   the main domain restores it, keeping [context_of_id] valid for the
   later (main-domain) scheduling stages.  The trie itself depends on no
   program and survives resets; only the node -> id map is cleared. *)
type intern_state = {
  tbl : (context, int) Hashtbl.t;
  rev : (int, context) Hashtbl.t;
  mutable next : int;
  children : Pp_util.Int_table.t;  (* (parent node, token) -> node *)
  mutable n_nodes : int;  (* node 0 is the empty sequence *)
  mutable pub : int array;  (* node -> interned id, -1 = not yet *)
}

let intern_key =
  Domain.DLS.new_key (fun () ->
      { tbl = Hashtbl.create 256;
        rev = Hashtbl.create 256;
        next = 0;
        children = Pp_util.Int_table.create 256;
        n_nodes = 1;
        pub = Array.make 256 (-1) })

let token_bits = 30
let separator = 3

let token c =
  let tok =
    match c with
    | Cblock (f, b) -> ((f lsl 16) lor b) lsl 2
    | Cloop (f, l) -> (((f lsl 16) lor l) lsl 2) lor 1
    | Ccomp k -> (k lsl 2) lor 2
  in
  if tok < 0 || tok >= 1 lsl token_bits then
    invalid_arg (Format.asprintf "Iiv: context element %a out of range" pp_ctx_id c);
  tok

let child s parent tok =
  let key = (parent lsl token_bits) lor tok in
  let n = Pp_util.Int_table.find s.children key in
  if n >= 0 then n
  else begin
    let n = s.n_nodes in
    s.n_nodes <- n + 1;
    Pp_util.Int_table.add s.children key n;
    if n >= Array.length s.pub then begin
      let pub = Array.make (2 * n) (-1) in
      Array.blit s.pub 0 pub 0 n;
      s.pub <- pub
    end;
    n
  end

type elt = { c : ctx_id; node : int (* trie node of the prefix ending here *) }

type dim = {
  dstack : elt list;  (* the statement stack the dimension was entered from *)
  dnode : int;  (* trie node after the dimension's separator *)
}

type t = {
  st : intern_state;
  mutable outer : dim list;  (* innermost dimension first *)
  mutable last : elt list;  (* innermost context element first *)
  mutable coords : int array;
      (* outermost first; replaced on every change, never mutated *)
}

let create () =
  { st = Domain.DLS.get intern_key; outer = []; last = []; coords = [||] }

let base t = match t.outer with d :: _ -> d.dnode | [] -> 0
let node t = match t.last with e :: _ -> e.node | [] -> base t
let elt t parent c = { c; node = child t.st parent (token c) }

let set_last t c =
  let rest = match t.last with [] -> [] | _ :: rest -> rest in
  let parent = match rest with e :: _ -> e.node | [] -> base t in
  t.last <- elt t parent c :: rest

let push_last t c = t.last <- elt t (node t) c :: t.last
let pop_last t = match t.last with [] -> () | _ :: rest -> t.last <- rest

let add_dimension t c =
  let dnode = child t.st (node t) separator in
  t.outer <- { dstack = t.last; dnode } :: t.outer;
  t.last <- [ elt t dnode c ];
  let n = Array.length t.coords in
  let a = Array.make (n + 1) 0 in
  Array.blit t.coords 0 a 0 n;
  t.coords <- a

let remove_dimension t =
  match t.outer with
  | [] -> ()
  | d :: rest ->
      t.outer <- rest;
      t.last <- d.dstack;
      t.coords <- Array.sub t.coords 0 (Array.length t.coords - 1)

let next_iteration t =
  let n = Array.length t.coords in
  if n > 0 then begin
    let a = Array.copy t.coords in
    a.(n - 1) <- a.(n - 1) + 1;
    t.coords <- a
  end

let loop_ctx = function
  | Loop_events.Cfg_loop { l_fid; loop } -> Cloop (l_fid, loop.Cfg.Loopnest.loop_id)
  | Loop_events.Rec_comp c -> Ccomp c.Cfg.Recset.comp_id

(* Algorithm 3. *)
let update t (ev : Loop_events.t) =
  match ev with
  | Loop_events.Block (f, b) -> set_last t (Cblock (f, b))
  | Loop_events.Call_push (f, b) -> push_last t (Cblock (f, b))
  | Loop_events.Ret_pop (f, b) ->
      pop_last t;
      set_last t (Cblock (f, b))
  | Loop_events.Enter (l, f, b) ->
      (match l with
      | Loop_events.Rec_comp _ -> push_last t (loop_ctx l)
      | Loop_events.Cfg_loop _ -> set_last t (loop_ctx l));
      add_dimension t (Cblock (f, b))
  | Loop_events.Iterate (_, f, b) ->
      next_iteration t;
      set_last t (Cblock (f, b))
  | Loop_events.Exit (_, f, b) ->
      remove_dimension t;
      if f >= 0 then set_last t (Cblock (f, b))

let depth t = Array.length t.coords
let coords t = t.coords
let stack_of elts = List.rev_map (fun e -> e.c) elts

let context t : context =
  List.rev_map (fun d -> stack_of d.dstack) t.outer @ [ stack_of t.last ]

let reset_intern_table () =
  let s = Domain.DLS.get intern_key in
  Hashtbl.reset s.tbl;
  Hashtbl.reset s.rev;
  s.next <- 0;
  Array.fill s.pub 0 (Array.length s.pub) (-1)

let context_id t =
  let s = t.st in
  let n = node t in
  let id = Array.unsafe_get s.pub n in
  if id >= 0 then id
  else begin
    let c = context t in
    let id =
      match Hashtbl.find_opt s.tbl c with
      | Some id -> id
      | None ->
          let id = s.next in
          s.next <- s.next + 1;
          Hashtbl.add s.tbl c id;
          Hashtbl.add s.rev id c;
          id
    in
    s.pub.(n) <- id;
    id
  end

let context_of_id id = Hashtbl.find (Domain.DLS.get intern_key).rev id

let snapshot_intern_table () =
  let s = Domain.DLS.get intern_key in
  let a = Array.make s.next [] in
  Hashtbl.iter (fun id c -> a.(id) <- c) s.rev;
  a

let restore_intern_table a =
  reset_intern_table ();
  let s = Domain.DLS.get intern_key in
  Array.iteri
    (fun id c ->
      Hashtbl.replace s.tbl c id;
      Hashtbl.replace s.rev id c)
    a;
  s.next <- Array.length a

let default_name c = Format.asprintf "%a" pp_ctx_id c

let pp_stack name fmt stack =
  List.iteri
    (fun i c ->
      if i > 0 then Format.fprintf fmt "/";
      Format.fprintf fmt "%s" (name c))
    stack

let pp ?(name = default_name) fmt t =
  Format.fprintf fmt "(";
  let dims = List.rev t.outer in
  List.iteri
    (fun i d ->
      if i > 0 then Format.fprintf fmt ", ";
      pp_stack name fmt (stack_of d.dstack);
      Format.fprintf fmt ", %d" t.coords.(i))
    dims;
  if dims <> [] then Format.fprintf fmt ", ";
  pp_stack name fmt (stack_of t.last);
  Format.fprintf fmt ")"

let to_string ?name t = Format.asprintf "%a" (pp ?name) t
