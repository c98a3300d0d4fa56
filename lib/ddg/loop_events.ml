type loop_ref =
  | Cfg_loop of { l_fid : int; loop : Cfg.Loopnest.loop }
  | Rec_comp of Cfg.Recset.component

let loop_name = function
  | Cfg_loop { l_fid; loop } -> Printf.sprintf "f%d.L%d" l_fid loop.Cfg.Loopnest.loop_id
  | Rec_comp c -> Printf.sprintf "RC%d" c.Cfg.Recset.comp_id

type t =
  | Enter of loop_ref * int * int
  | Iterate of loop_ref * int * int
  | Exit of loop_ref * int * int
  | Block of int * int
  | Call_push of int * int
  | Ret_pop of int * int

let subscript = function Cfg_loop _ -> "" | Rec_comp _ -> "c"

let pp fmt = function
  | Enter (l, f, b) ->
      Format.fprintf fmt "E%s(%s, f%d.b%d)" (subscript l) (loop_name l) f b
  | Iterate (l, f, b) ->
      Format.fprintf fmt "I%s(%s, f%d.b%d)" (subscript l) (loop_name l) f b
  | Exit (l, f, b) ->
      Format.fprintf fmt "X%s(%s, f%d.b%d)"
        (match l with Cfg_loop _ -> "" | Rec_comp _ -> "r")
        (loop_name l) f b
  | Block (f, b) -> Format.fprintf fmt "N(f%d.b%d)" f b
  | Call_push (f, b) -> Format.fprintf fmt "C(f%d.b%d)" f b
  | Ret_pop (f, b) -> Format.fprintf fmt "R(f%d.b%d)" f b

type stack_entry = Loop_live of loop_ref | Frame of int

type comp_state = { mutable stackcount : int; mutable centry : int option }

type state = {
  structure : Cfg.Cfg_builder.structure;
  mutable stack : stack_entry list;  (* top first *)
  mutable started : bool;
  main : int;
  comp_states : (int, comp_state) Hashtbl.t;
}

let create structure ~main =
  { structure;
    stack = [ Frame main ];
    started = false;
    main;
    comp_states = Hashtbl.create 4 }

let comp_state st (c : Cfg.Recset.component) =
  match Hashtbl.find_opt st.comp_states c.comp_id with
  | Some s -> s
  | None ->
      let s = { stackcount = 0; centry = None } in
      Hashtbl.add st.comp_states c.comp_id s;
      s

let forest st fid =
  match Cfg.Cfg_builder.forest_of st.structure fid with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Loop_events: no CFG for f%d" fid)

let same_cfg_loop a fid (l : Cfg.Loopnest.loop) =
  match a with
  | Cfg_loop { l_fid; loop } -> l_fid = fid && loop.Cfg.Loopnest.loop_id = l.Cfg.Loopnest.loop_id
  | Rec_comp _ -> false

(* Algorithm 1: loop events from a local jump. *)
let on_jump st ~fid ~dst emit =
  (* exit live loops of the current frame that do not contain [dst] *)
  let rec pop_exited () =
    match st.stack with
    | Loop_live (Cfg_loop { l_fid; loop }) :: rest
      when l_fid = fid && not (Cfg.Loopnest.loop_contains loop dst) ->
        st.stack <- rest;
        emit (Exit (Cfg_loop { l_fid; loop }, fid, dst));
        pop_exited ()
    | _ -> ()
  in
  pop_exited ();
  (match Cfg.Loopnest.loop_of_header (forest st fid) dst with
  | Some l -> (
      match st.stack with
      | Loop_live top :: _ when same_cfg_loop top fid l ->
          emit (Iterate (Cfg_loop { l_fid = fid; loop = l }, fid, dst))
      | _ ->
          let lr = Cfg_loop { l_fid = fid; loop = l } in
          st.stack <- Loop_live lr :: st.stack;
          emit (Enter (lr, fid, dst)))
  | None -> ());
  emit (Block (fid, dst))

(* Algorithm 2, call part. *)
let on_call st ~callee emit =
  let recset = st.structure.Cfg.Cfg_builder.recset in
  (match Cfg.Recset.component_of recset callee with
  | Some c when Cfg.Recset.is_entry recset callee && (comp_state st c).centry = None
    ->
      let cs = comp_state st c in
      cs.centry <- Some callee;
      st.stack <- Loop_live (Rec_comp c) :: st.stack;
      emit (Enter (Rec_comp c, callee, 0))
  | Some c when Cfg.Recset.is_header recset callee ->
      (* iteration of the recursive loop: all live CFG loops of member
         functions (they all are, between here and the component entry)
         are exited *)
      let cs = comp_state st c in
      let rec pop_members acc = function
        | Loop_live (Cfg_loop ll) :: rest ->
            emit (Exit (Cfg_loop ll, callee, 0));
            pop_members acc rest
        | (Loop_live (Rec_comp c') :: _) as stack
          when c'.Cfg.Recset.comp_id = c.Cfg.Recset.comp_id ->
            List.rev_append acc stack
        | Frame f :: rest -> pop_members (Frame f :: acc) rest
        | Loop_live (Rec_comp _) :: rest ->
            (* a disjoint component cannot be live strictly inside [c]
               while iterating [c]; be defensive and keep it *)
            pop_members acc rest
        | [] -> List.rev acc
      in
      st.stack <- pop_members [] st.stack;
      cs.stackcount <- cs.stackcount + 1;
      emit (Iterate (Rec_comp c, callee, 0))
  | Some _ | None -> emit (Call_push (callee, 0)));
  st.stack <- Frame callee :: st.stack

(* Algorithm 2, return part. *)
let on_return st ~callee ~caller ~dst emit =
  (* exit the returning function's still-live CFG loops, then pop its
     frame marker *)
  let rec unwind () =
    match st.stack with
    | Loop_live (Cfg_loop ll) :: rest ->
        st.stack <- rest;
        emit (Exit (Cfg_loop ll, caller, dst));
        unwind ()
    | Frame f :: rest ->
        assert (f = callee);
        st.stack <- rest
    | Loop_live (Rec_comp _) :: _ | [] ->
        invalid_arg "Loop_events: unbalanced return"
  in
  unwind ();
  let recset = st.structure.Cfg.Cfg_builder.recset in
  (match Cfg.Recset.component_of recset callee with
  | Some c
    when (comp_state st c).centry = Some callee
         && (comp_state st c).stackcount = 0 ->
      (* the call that entered the recursive loop is unstacked: exit *)
      let cs = comp_state st c in
      cs.centry <- None;
      (match st.stack with
      | Loop_live (Rec_comp c') :: rest when c'.Cfg.Recset.comp_id = c.comp_id ->
          st.stack <- rest
      | _ -> invalid_arg "Loop_events: recursive component not on top at exit");
      emit (Exit (Rec_comp c, caller, dst))
  | Some c when Cfg.Recset.is_header recset callee ->
      let cs = comp_state st c in
      cs.stackcount <- cs.stackcount - 1;
      emit (Iterate (Rec_comp c, caller, dst))
  | Some _ | None ->
      emit (Ret_pop (caller, dst));
      (* the continuation block may itself be a loop header (paper Alg. 2
         line 24 falls through to Alg. 1) *)
      (match Cfg.Loopnest.loop_of_header (forest st caller) dst with
      | Some l -> (
          match st.stack with
          | Loop_live top :: _ when same_cfg_loop top caller l ->
              emit (Iterate (Cfg_loop { l_fid = caller; loop = l }, caller, dst))
          | _ ->
              let lr = Cfg_loop { l_fid = caller; loop = l } in
              st.stack <- Loop_live lr :: st.stack;
              emit (Enter (lr, caller, dst)))
      | None -> ()))

let start st =
  if st.started then []
  else begin
    st.started <- true;
    [ Block (st.main, 0) ]
  end

let feed_into st (ev : Vm.Event.control) emit =
  if not st.started then begin
    st.started <- true;
    emit (Block (st.main, 0))
  end;
  match ev with
  | Vm.Event.Jump { fid; src = _; dst } -> on_jump st ~fid ~dst emit
  | Vm.Event.Call { caller = _; site = _; callee; dst = _ } ->
      on_call st ~callee emit
  | Vm.Event.Return { callee; caller; dst } ->
      on_return st ~callee ~caller ~dst emit

let feed st ev =
  let events = ref [] in
  feed_into st ev (fun e -> events := e :: !events);
  List.rev !events

let finish st =
  let events = ref [] in
  List.iter
    (function
      | Loop_live lr -> events := Exit (lr, -1, -1) :: !events
      | Frame _ -> ())
    st.stack;
  st.stack <- [];
  List.rev !events

let live_depth st =
  List.length
    (List.filter (function Loop_live _ -> true | Frame _ -> false) st.stack)
