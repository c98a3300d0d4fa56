type config = {
  max_pieces : int;
  track_waw : bool;
  scev_prune : bool;
  boundary_splits : bool;
  per_component_labels : bool;
}

let default_config =
  { max_pieces = 16;
    track_waw = false;
    scev_prune = true;
    boundary_splits = true;
    per_component_labels = true }

(* buffered points per statement / dependence before widening *)
let stmt_cap = 100_000
let dep_cap = 50_000

let make_collector config ~cap ~dim ~label_dim =
  Fold.Collector.create ~cap ~max_pieces:config.max_pieces
    ~boundary_splits:config.boundary_splits
    ~per_component:config.per_component_labels ~dim ~label_dim ()

type label_kind = Lvalue | Laddr | Lnone

type stmt_key = { s_ctx : int; s_sid : Vm.Isa.Sid.t }

type stmt_info = {
  sk : stmt_key;
  cls : Vm.Isa.op_class;
  s_count : int;
  s_pieces : Fold.piece list;
  label_kind : label_kind;
  is_scev : bool;
  affine_exact : bool;
  depth : int;
}

type dep_kind = Reg_dep | Mem_dep | Out_dep

type dep_key = {
  src_sid : Vm.Isa.Sid.t;
  src_ctx : int;
  dst_sid : Vm.Isa.Sid.t;
  dst_ctx : int;
  kind : dep_kind;
}

type dep_info = {
  dk : dep_key;
  d_count : int;
  d_pieces : Fold.piece list;
  src_depth : int;
  dst_depth : int;
}

(* Witness checks (speculative pruning): the static engine may prune a
   region whose model holds only under an assumption about a
   data-dependent branch.  Each assumption is a [witness]; the engine
   probes the guard's branch events at run time, and a run whose
   behaviour contradicts a witness raises {!Witness_failure} before any
   result is materialised (the caller re-analyses with the speculation
   refined and reruns). *)
type witness_expect =
  | Expect_taken  (* the guard always branches to [w_block] *)
  | Expect_skip  (* the guard never branches to [w_block] *)

type witness = {
  w_fid : int;
  w_guard : int;  (* block whose terminator is the speculated branch *)
  w_block : int;  (* the branch successor the speculation is about *)
  w_expect : witness_expect;
}

type witness_outcome = { wo_witness : witness; wo_hits : int; wo_misses : int }

exception Witness_failure of witness_outcome list

type result = {
  stmts : stmt_info list;
  deps : dep_info list;
  pruned_dep_edges : int;
  total_dep_edges : int;
  statically_pruned : int;
  witnesses : witness_outcome list;
  stree : Sched_tree.t;
  cct : Cct.t;
  run_stats : Vm.Interp.stats;
  structure : Cfg.Cfg_builder.structure;
}

(* A statically resolved access: its address is an affine function of
   the dynamic iteration vector, [base + coefs . coords].  Produced by
   [Analysis.Statdep], consumed here to skip shadow-memory tracking and
   re-derive the skipped dependences by simulation at finalisation. *)
type static_access = {
  sa_sid : Vm.Isa.Sid.t;
  sa_store : bool;
  sa_base : int;
  sa_coefs : int array;
}

type static_item =
  | Sacc of static_access
  | Sloop of { sl_base : int; sl_coefs : int array; sl_body : static_item list }

type static_plan = {
  sp_items : static_item list;
      (** the program's once-executed chain restricted to pruned
          accesses: straight-line items and affine-trip loops (runtime
          trip = [max 0 (sl_base + sl_coefs . outer coords)]), in
          execution order *)
  sp_resolved : (Vm.Isa.Sid.t, static_access) Hashtbl.t;
      (** the pruned accesses, keyed by statement id *)
  sp_witnesses : witness list;
      (** speculation assumptions the plan depends on *)
  sp_mem_size : int;
}

let loop_trip ~base ~coefs (coords : int array) =
  let t = ref base in
  Array.iteri (fun i c -> t := !t + (c * coords.(i))) coefs;
  max 0 !t

type stmt_rec = {
  collector : Fold.Collector.t;
  mutable count : int;
  r_cls : Vm.Isa.op_class;
  r_label : label_kind;
  mutable poisoned : bool;  (* saw a label of the wrong shape *)
  r_depth : int;
}

(* A statement of the run under its dense id: the interned
   (context, sid) pair, with its folding state where this engine owns
   the statement. *)
type stmt = { st_ctx : int; st_sid : Vm.Isa.Sid.t; st_fold : stmt_rec option }

(* [d_src] and [d_dst] are statement ids *)
type dep_rec = {
  d_src : int;
  d_dst : int;
  d_kind : dep_kind;
  d_collector : Fold.Collector.t;
  mutable d_n : int;
  dr_src_depth : int;
  dr_dst_depth : int;
}

let make_dep_rec config ~src ~dst kind ~src_depth ~dst_depth =
  { d_src = src;
    d_dst = dst;
    d_kind = kind;
    d_collector =
      make_collector config ~cap:dep_cap ~dim:dst_depth ~label_dim:src_depth;
    d_n = 0;
    dr_src_depth = src_depth;
    dr_dst_depth = dst_depth }

(* A buffered dynamic dependence edge (address-sharded profiling):
   enough to replay the exact [Fold.Collector.add] the sequential
   profiler would perform, in the exact order — [p_seq] is the global
   exec-event number, [p_slot] the position of this edge among the
   event's shadow consultations (reads, then the memory read, then the
   write-after-write check). *)
type dep_point = {
  p_seq : int;
  p_slot : int;
  p_coords : int array;  (* consumer iteration vector *)
  p_lab : int array;  (* producer iteration vector *)
}

type rec_buf = {
  b_src : int;
  b_dst : int;
  b_kind : dep_kind;
  mutable pts : dep_point list;  (* reversed *)
  mutable rn : int;
}

type witness_state = {
  ws_w : witness;
  mutable ws_hits : int;
  mutable ws_misses : int;
}

let label_kind_of prog sid =
  match Vm.Prog.instr_at prog sid with
  | Vm.Isa.Cmp _ | Vm.Isa.Fcmp _ -> Lnone
  | Vm.Isa.Load _ | Vm.Isa.Store _ -> Laddr
  | i -> (
      match Vm.Isa.class_of_instr i with
      | Vm.Isa.Int_alu -> Lvalue
      | Vm.Isa.Fp_alu | Vm.Isa.Mem_load | Vm.Isa.Mem_store | Vm.Isa.Other_op ->
          Lnone)

(* A growable array: the tables indexed by dense ids. *)
type 'a vec = { mutable items : 'a array; mutable len : int }

let vec () = { items = [||]; len = 0 }

let push v x =
  if v.len = Array.length v.items then begin
    let a = Array.make (max 64 (2 * v.len)) x in
    Array.blit v.items 0 a 0 v.len;
    v.items <- a
  end;
  v.items.(v.len) <- x;
  v.len <- v.len + 1;
  v.len - 1

let vec_iter f v =
  for i = 0 to v.len - 1 do
    f v.items.(i)
  done

let vec_fold f v acc =
  let acc = ref acc in
  vec_iter (fun x -> acc := f x !acc) v;
  !acc

(* Int keys of the intern tables: a statement is (context, sid), a
   dependence (source id, destination id, kind). *)
let id_bits = 29

let stmt_code ~ctx ~sid =
  if ctx >= 1 lsl (62 - Vm.Isa.Sid.width) then
    failwith "Depprof: too many contexts";
  (ctx lsl Vm.Isa.Sid.width) lor sid

let kind_code = function Reg_dep -> 0 | Mem_dep -> 1 | Out_dep -> 2
let dep_code ~src ~dst kind = (((src lsl id_bits) lor dst) lsl 2) lor kind_code kind

(* ------------------------------------------------------------------ *)
(* The profiling engine                                                 *)
(* ------------------------------------------------------------------ *)

(* One Instrumentation-II state machine.  [nshards = 1] is the exact
   sequential profiler: every statement and dependence is owned and
   dependence points stream straight into the folding collectors.  With
   [nshards > 1] the engine becomes one worker of an address-sharded
   parallel profiler: it still replays the full event stream (iteration
   vectors are a global property of the trace) but

   - maintains shadow memory only for addresses of its shard,
   - maintains shadow registers only for registers of its shard,
   - folds statement domains only for statement keys of its shard,
   - buffers its dependence edges as [dep_point]s for a deterministic
     merge instead of folding them on-line (one folded dependence can
     draw edges from addresses of several shards),
   - builds the schedule tree and CCT only on the lead shard (0), while
     still performing the same [Iiv.context_id] calls so every shard
     interns identical context ids in its domain-local table.

   Nothing on the per-instruction path allocates except the statement
   label handed to its collector: the iteration vector is the IIV's
   shared array, statements and dependences are found by int keys
   ([stmt_code], [dep_code]) in open-addressing tables and live in
   arrays indexed by dense ids, and the shadows store a statement id
   plus the producer's iteration vector in flat arrays. *)
type engine = {
  e_config : config;
  e_prog : Vm.Prog.t;
  e_structure : Cfg.Cfg_builder.structure;
  shard : int;
  nshards : int;
  iiv : Iiv.t;
  levents : Loop_events.state;
  on_levent : Loop_events.t -> unit;
  e_stree : Sched_tree.t;
  e_cct : Cct.t;
  lead : bool;
  buffer_deps : bool;  (* buffer edges for a later merge (Sharded) *)
  shadow : Shadow.t;
  stmt_ids : Pp_util.Int_table.t;  (* stmt_code -> statement id *)
  e_stmts : stmt vec;
  dep_ids : Pp_util.Int_table.t;  (* dep_code -> index in e_deps / e_recs *)
  e_deps : dep_rec vec;  (* direct folding *)
  e_recs : rec_buf vec;  (* buffered edges *)
  e_prune : static_plan option;
  e_witness : (int * int, witness_state list) Hashtbl.t;
      (* (fid, guard block) -> probes on that guard's branch *)
  mutable n_pruned : int;  (* accesses whose shadow tracking was skipped *)
  mutable seq : int;  (* exec events seen *)
  mutable peak_shadow : int;
}

(* Address blocks of 2^6 = 64 words distribute round-robin over shards,
   so a shard owns periodic address ranges; statements hash over
   (context, sid); registers distribute round-robin.  All three are
   deterministic functions, identical in every domain. *)
let addr_block_shift = 6

let owns_addr e addr =
  e.nshards = 1
  || ((addr asr addr_block_shift) land max_int) mod e.nshards = e.shard

let owns_reg e reg = e.nshards = 1 || (reg land max_int) mod e.nshards = e.shard

let owns_stmt e ~ctx ~sid =
  e.nshards = 1 || (((ctx * 31) + sid) land max_int) mod e.nshards = e.shard

let apply_levent e ev =
  Iiv.update e.iiv ev;
  match ev with
  | Loop_events.Iterate _ ->
      (* every shard interns the context (identical id sequences across
         domains); only the lead shard materialises the tree *)
      let ctx_key = Iiv.context_id e.iiv in
      if e.lead then Sched_tree.record_iteration e.e_stree ~ctx_key
  | Loop_events.Enter _ | Loop_events.Exit _ | Loop_events.Block _
  | Loop_events.Call_push _ | Loop_events.Ret_pop _ ->
      ()

let make_engine ?(config = default_config) ?(buffer_deps = false)
    ?static_prune ~shard ~nshards prog ~structure =
  Iiv.reset_intern_table ();
  (match static_prune with
  | Some _ when nshards > 1 ->
      invalid_arg "Depprof: static pruning is sequential-only"
  | _ -> ());
  let e_witness = Hashtbl.create 8 in
  (match static_prune with
  | Some p ->
      List.iter
        (fun w ->
          let key = (w.w_fid, w.w_guard) in
          Hashtbl.replace e_witness key
            ({ ws_w = w; ws_hits = 0; ws_misses = 0 }
            :: Option.value ~default:[] (Hashtbl.find_opt e_witness key)))
        p.sp_witnesses
  | None -> ());
  let rec e =
    { e_config = config;
      e_prog = prog;
      e_structure = structure;
      shard;
      nshards;
      iiv = Iiv.create ();
      levents = Loop_events.create structure ~main:prog.Vm.Prog.main;
      on_levent = (fun ev -> apply_levent e ev);
      e_stree = Sched_tree.create ();
      e_cct = Cct.create ~main:prog.Vm.Prog.main;
      lead = shard = 0;
      buffer_deps;
      shadow = Shadow.create ();
      stmt_ids = Pp_util.Int_table.create 512;
      e_stmts = vec ();
      dep_ids = Pp_util.Int_table.create 512;
      e_deps = vec ();
      e_recs = vec ();
      e_prune = static_prune;
      e_witness;
      n_pruned = 0;
      seq = 0;
      peak_shadow = 0 }
  in
  e

let on_control e ev =
  if e.lead then Cct.on_control e.e_cct ev;
  (match ev with
  | Vm.Event.Call _ -> Shadow.push_frame e.shadow
  | Vm.Event.Return _ -> Shadow.pop_frame e.shadow
  | Vm.Event.Jump { fid; src; dst } -> (
      (* witness probe: every branch of a speculated guard either
         confirms or refutes the speculation *)
      if Hashtbl.length e.e_witness > 0 then
        match Hashtbl.find_opt e.e_witness (fid, src) with
        | Some wss ->
            List.iter
              (fun ws ->
                let taken = dst = ws.ws_w.w_block in
                let ok =
                  match ws.ws_w.w_expect with
                  | Expect_taken -> taken
                  | Expect_skip -> not taken
                in
                if ok then ws.ws_hits <- ws.ws_hits + 1
                else ws.ws_misses <- ws.ws_misses + 1)
              wss
        | None -> ()));
  Loop_events.feed_into e.levents ev e.on_levent

(* The dense id of statement (ctx, sid), interned on first execution,
   when its folding record is created if this engine owns it. *)
let stmt_id e ~ctx ~sid ~depth first_value =
  let code = stmt_code ~ctx ~sid in
  let id = Pp_util.Int_table.find e.stmt_ids code in
  if id >= 0 then id
  else begin
    let st_fold =
      if not (owns_stmt e ~ctx ~sid) then None
      else
        let r_label =
          (* an integer-class instruction that turns out to carry a
             float (e.g. a Mov copying a loaded float) has no integer
             value to recognise a SCEV on: demote it to label-less *)
          match (label_kind_of e.e_prog sid, first_value) with
          | Lvalue, Some (Vm.Event.F _) -> Lnone
          | k, _ -> k
        in
        let label_dim = match r_label with Lnone -> 0 | Lvalue | Laddr -> 1 in
        Some
          { collector =
              make_collector e.e_config ~cap:stmt_cap ~dim:depth ~label_dim;
            count = 0;
            r_cls = Vm.Isa.class_of_instr (Vm.Prog.instr_at e.e_prog sid);
            r_label;
            poisoned = false;
            r_depth = depth }
    in
    let id = push e.e_stmts { st_ctx = ctx; st_sid = sid; st_fold } in
    if id >= 1 lsl id_bits then failwith "Depprof: too many statements";
    Pp_util.Int_table.add e.stmt_ids code id;
    id
  end

let affine_addr sa coords =
  let a = ref sa.sa_base in
  for i = 0 to Array.length sa.sa_coefs - 1 do
    a := !a + (sa.sa_coefs.(i) * coords.(i))
  done;
  !a

(* statement domain + label *)
let fold_stmt r (ex : Vm.Event.exec) coords pruned_acc =
  r.count <- r.count + 1;
  let depth = Array.length coords in
  if Fold.Collector.dim r.collector = depth then begin
    let label =
      match r.r_label with
      | Lnone -> [||]
      | Lvalue -> (
          match ex.value with
          | Some (Vm.Event.I v) -> [| v |]
          | Some (Vm.Event.F _) | None ->
              r.poisoned <- true;
              [| 0 |])
      | Laddr -> (
          match (ex.addr_read, ex.addr_written) with
          | Some a, _ | None, Some a -> [| a |]
          | None, None -> (
              (* an elided trace drops the addresses of pruned
                 accesses; the static plan reconstructs them *)
              match pruned_acc with
              | Some sa when Array.length sa.sa_coefs = depth ->
                  [| affine_addr sa coords |]
              | _ ->
                  r.poisoned <- true;
                  [| 0 |]))
    in
    Fold.Collector.add r.collector coords label
  end
  else r.poisoned <- true

let record_dep e ~seq ~slot kind ~src ~src_coords ~dst ~coords =
  let code = dep_code ~src ~dst kind in
  let i = Pp_util.Int_table.find e.dep_ids code in
  if not e.buffer_deps then begin
    let dr =
      if i >= 0 then e.e_deps.items.(i)
      else begin
        let dr =
          make_dep_rec e.e_config ~src ~dst kind
            ~src_depth:(Array.length src_coords) ~dst_depth:(Array.length coords)
        in
        Pp_util.Int_table.add e.dep_ids code (push e.e_deps dr);
        dr
      end
    in
    dr.d_n <- dr.d_n + 1;
    if
      Fold.Collector.dim dr.d_collector = Array.length coords
      && Array.length src_coords = dr.dr_src_depth
    then Fold.Collector.add dr.d_collector coords src_coords
  end
  else begin
    let rb =
      if i >= 0 then e.e_recs.items.(i)
      else begin
        let rb = { b_src = src; b_dst = dst; b_kind = kind; pts = []; rn = 0 } in
        Pp_util.Int_table.add e.dep_ids code (push e.e_recs rb);
        rb
      end
    in
    rb.pts <-
      { p_seq = seq; p_slot = slot; p_coords = coords; p_lab = src_coords }
      :: rb.pts;
    rb.rn <- rb.rn + 1
  end

(* register dependences, one consultation slot per read; returns the
   next slot *)
let rec consult_regs e ~seq ~dst ~coords slot = function
  | [] -> slot
  | reg :: rest ->
      (if owns_reg e reg then
         let src = Shadow.reg_writer e.shadow ~reg in
         if src >= 0 then
           record_dep e ~seq ~slot Reg_dep ~src
             ~src_coords:(Shadow.reg_writer_coords e.shadow ~reg)
             ~dst ~coords);
      consult_regs e ~seq ~dst ~coords (slot + 1) rest

let consult_mem e ~seq ~slot kind ~addr ~dst ~coords =
  let src = Shadow.mem_writer e.shadow ~addr in
  if src >= 0 then
    record_dep e ~seq ~slot kind ~src
      ~src_coords:(Shadow.mem_writer_coords e.shadow ~addr)
      ~dst ~coords

let on_exec e (ex : Vm.Event.exec) =
  let seq = e.seq in
  e.seq <- seq + 1;
  let ctx = Iiv.context_id e.iiv in
  let coords = Iiv.coords e.iiv in
  (* statically pruned access?  shadow-memory tracking is skipped; the
     dependences are injected from the static plan at finalisation *)
  let pruned_acc =
    match e.e_prune with
    | None -> None
    | Some p -> Hashtbl.find_opt p.sp_resolved ex.sid
  in
  let pruned = Option.is_some pruned_acc in
  if pruned then e.n_pruned <- e.n_pruned + 1;
  if e.lead then begin
    Cct.add_weight e.e_cct 1;
    Sched_tree.record_id e.e_stree ~ctx_key:ctx ~weight:1
  end;
  let id =
    stmt_id e ~ctx ~sid:ex.sid ~depth:(Array.length coords) ex.value
  in
  (match e.e_stmts.items.(id).st_fold with
  | Some r -> fold_stmt r ex coords pruned_acc
  | None -> ());
  (* dependences: consult shadows before recording this instruction's
     own writes.  [slot] numbers the potential shadow consultations of
     this event so the sharded merge can restore the sequential order. *)
  let nreads = consult_regs e ~seq ~dst:id ~coords 0 ex.reads in
  (match ex.addr_read with
  | Some addr when (not pruned) && owns_addr e addr ->
      consult_mem e ~seq ~slot:nreads Mem_dep ~addr ~dst:id ~coords
  | Some _ | None -> ());
  (match ex.addr_written with
  | Some addr when (not pruned) && owns_addr e addr ->
      if e.e_config.track_waw then
        consult_mem e ~seq ~slot:(nreads + 1) Out_dep ~addr ~dst:id ~coords;
      Shadow.set_mem e.shadow ~addr ~id coords
  | Some _ | None -> ());
  (match ex.writes with
  | Some reg when owns_reg e reg -> Shadow.set_reg e.shadow ~reg ~id coords
  | Some _ | None -> ());
  let words = Shadow.n_shadowed_words e.shadow in
  if words > e.peak_shadow then e.peak_shadow <- words

let callbacks e =
  { Vm.Interp.on_control = (fun ev -> on_control e ev);
    on_exec = (fun ex -> on_exec e ex) }

let start e = List.iter e.on_levent (Loop_events.start e.levents)
let finish e = List.iter e.on_levent (Loop_events.finish e.levents)

let witness_outcomes e =
  Hashtbl.fold
    (fun _ wss acc ->
      List.map
        (fun ws ->
          { wo_witness = ws.ws_w; wo_hits = ws.ws_hits; wo_misses = ws.ws_misses })
        wss
      @ acc)
    e.e_witness []
  |> List.sort compare

(* Must run after [finish] and before [finalize]: a refuted witness
   means the pruned run skipped shadow tracking it actually needed, so
   no result may be materialised from this engine. *)
let check_witnesses e =
  let os = witness_outcomes e in
  if List.exists (fun o -> o.wo_misses > 0) os then raise (Witness_failure os)

(* ------------------------------------------------------------------ *)
(* Finalisation                                                         *)
(* ------------------------------------------------------------------ *)

let stmt_key_of e id =
  let st = e.e_stmts.items.(id) in
  { s_ctx = st.st_ctx; s_sid = st.st_sid }

let dep_key_of e ~src ~dst kind =
  let s = stmt_key_of e src and d = stmt_key_of e dst in
  { src_sid = s.s_sid; src_ctx = s.s_ctx; dst_sid = d.s_sid; dst_ctx = d.s_ctx;
    kind }

let stmt_infos_of e =
  vec_fold
    (fun st acc ->
      match st.st_fold with
      | None -> acc
      | Some r ->
          let pieces = Fold.Collector.result r.collector in
          let affine = (not r.poisoned) && Fold.Collector.is_affine r.collector in
          { sk = { s_ctx = st.st_ctx; s_sid = st.st_sid };
            cls = r.r_cls;
            s_count = r.count;
            s_pieces = pieces;
            label_kind = r.r_label;
            is_scev = (r.r_label = Lvalue && affine);
            affine_exact = affine;
            depth = r.r_depth }
          :: acc)
    e.e_stmts []

let scev_set_of stmt_infos =
  let scev_set = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.is_scev then Hashtbl.replace scev_set (s.sk.s_ctx, s.sk.s_sid) ())
    stmt_infos;
  scev_set

(* Re-derive the dependences the pruned run skipped, by simulating the
   static plan: enumerate the resolved accesses in exact execution order
   (the plan is the program's once-executed chain) with a dense
   last-writer table over the address space, feeding every rediscovered
   edge into a fresh collector exactly as the sequential engine would
   have.  Statement ids are recovered from the pruned run's own
   statement table — each pruned statement executes under a unique
   dynamic context by construction of the plan (single static call
   chain). *)
let simulate_plan e (plan : static_plan) =
  let config = e.e_config in
  let id_of : (Vm.Isa.Sid.t, int) Hashtbl.t = Hashtbl.create 64 in
  let dyn_count : (Vm.Isa.Sid.t, int) Hashtbl.t = Hashtbl.create 64 in
  for id = 0 to e.e_stmts.len - 1 do
    let st = e.e_stmts.items.(id) in
    match st.st_fold with
    | Some r when Hashtbl.mem plan.sp_resolved st.st_sid ->
        (match Hashtbl.find_opt id_of st.st_sid with
        | Some other when other <> id ->
            failwith "Depprof: pruned statement has multiple dynamic contexts"
        | _ -> Hashtbl.replace id_of st.st_sid id);
        Hashtbl.replace dyn_count st.st_sid
          (r.count + Option.value ~default:0 (Hashtbl.find_opt dyn_count st.st_sid))
    | Some _ | None -> ()
  done;
  let last : (Vm.Isa.Sid.t * int array) option array =
    Array.make (max 1 plan.sp_mem_size) None
  in
  let sim_count : (Vm.Isa.Sid.t, int ref) Hashtbl.t = Hashtbl.create 64 in
  let dep_ids = Pp_util.Int_table.create 64 in
  let deps = vec () in
  let n_edges = ref 0 in
  let emit kind (src_sid, src_coords) dst_sid dst_coords =
    match (Hashtbl.find_opt id_of src_sid, Hashtbl.find_opt id_of dst_sid) with
    | Some src, Some dst ->
        let code = dep_code ~src ~dst kind in
        let i = Pp_util.Int_table.find dep_ids code in
        let dr =
          if i >= 0 then deps.items.(i)
          else begin
            let dr =
              make_dep_rec config ~src ~dst kind
                ~src_depth:(Array.length src_coords)
                ~dst_depth:(Array.length dst_coords)
            in
            Pp_util.Int_table.add dep_ids code (push deps dr);
            dr
          end
        in
        dr.d_n <- dr.d_n + 1;
        incr n_edges;
        Fold.Collector.add dr.d_collector dst_coords src_coords
    | _ -> failwith "Depprof: pruned dependence endpoint never executed"
  in
  let coords_buf = ref (Array.make 16 0) in
  let depth = ref 0 in
  let rec go items =
    List.iter
      (fun item ->
        match item with
        | Sacc a ->
            let d = !depth in
            if Array.length a.sa_coefs <> d then
              failwith "Depprof: static plan depth mismatch";
            let coords = Array.sub !coords_buf 0 d in
            let addr = ref a.sa_base in
            Array.iteri (fun i c -> addr := !addr + (c * coords.(i))) a.sa_coefs;
            let addr = !addr in
            if addr < 0 || addr >= Array.length last then
              failwith "Depprof: static plan address out of range";
            (match Hashtbl.find_opt sim_count a.sa_sid with
            | Some r -> incr r
            | None -> Hashtbl.add sim_count a.sa_sid (ref 1));
            if a.sa_store then begin
              (if config.track_waw then
                 match last.(addr) with
                 | Some origin -> emit Out_dep origin a.sa_sid coords
                 | None -> ());
              last.(addr) <- Some (a.sa_sid, coords)
            end
            else begin
              match last.(addr) with
              | Some origin -> emit Mem_dep origin a.sa_sid coords
              | None -> ()
            end
        | Sloop { sl_base; sl_coefs; sl_body } ->
            let d = !depth in
            if Array.length sl_coefs <> d then
              failwith "Depprof: static plan loop depth mismatch";
            if d >= Array.length !coords_buf then begin
              let grown = Array.make (2 * Array.length !coords_buf) 0 in
              Array.blit !coords_buf 0 grown 0 (Array.length !coords_buf);
              coords_buf := grown
            end;
            let trip = loop_trip ~base:sl_base ~coefs:sl_coefs !coords_buf in
            depth := d + 1;
            for k = 0 to trip - 1 do
              !coords_buf.(d) <- k;
              go sl_body
            done;
            depth := d)
      items
  in
  go plan.sp_items;
  (* the simulation must cover exactly the executions the run saw:
     a mismatch means a truncated run or an unsound plan — fail loudly
     rather than inject wrong dependences *)
  Hashtbl.iter
    (fun sid n ->
      let m = Option.value ~default:0 (Hashtbl.find_opt dyn_count sid) in
      if !n <> m then
        failwith
          (Format.asprintf
             "Depprof: static plan simulated %d executions of %a, the run \
              performed %d (truncated run?)"
             !n Vm.Isa.Sid.pp sid m))
    sim_count;
  Hashtbl.iter
    (fun sid m ->
      if m > 0 && not (Hashtbl.mem sim_count sid) then
        failwith "Depprof: pruned access executed but absent from the plan")
    dyn_count;
  (deps, !n_edges)

let obs_events = Obs.Metrics.counter ~help:"exec events seen by the dependence profiler" "ddg.profile.events"
let obs_peak_shadow = Obs.Metrics.gauge ~help:"peak shadow-table entries (live tracked addresses)" "ddg.profile.peak_shadow"
let obs_pruned_accesses = Obs.Metrics.counter ~help:"memory accesses skipped by static pruning" "ddg.profile.pruned_accesses"
let obs_dep_edges = Obs.Metrics.counter ~help:"dynamic dependence edges (before SCEV pruning)" "ddg.result.dep_edges"
let obs_scev_pruned = Obs.Metrics.counter ~help:"dependence edges dropped by SCEV pruning" "ddg.result.scev_pruned_edges"

let finalize e ~run_stats =
  Obs.Span.with_ ~cat:"ddg" "ddg.finalize" @@ fun () ->
  let stmt_infos = stmt_infos_of e in
  let scev_set = scev_set_of stmt_infos in
  (* inject the dependences skipped by static pruning *)
  (match e.e_prune with
  | Some plan when plan.sp_items <> [] ->
      let injected, _ = simulate_plan e plan in
      vec_iter
        (fun dr ->
          let code = dep_code ~src:dr.d_src ~dst:dr.d_dst dr.d_kind in
          if Pp_util.Int_table.find e.dep_ids code >= 0 then
            failwith "Depprof: injected dependence collides with a dynamic one";
          Pp_util.Int_table.add e.dep_ids code (push e.e_deps dr))
        injected
  | _ -> ());
  (* SCEV pruning: drop dependence edges whose producer or consumer is a
     recognised scalar-evolution instruction *)
  let total_dep_edges = ref 0 in
  let pruned = ref 0 in
  let dep_infos =
    vec_fold
      (fun dr acc ->
        let dk = dep_key_of e ~src:dr.d_src ~dst:dr.d_dst dr.d_kind in
        total_dep_edges := !total_dep_edges + dr.d_n;
        if
          e.e_config.scev_prune
          && (Hashtbl.mem scev_set (dk.src_ctx, dk.src_sid)
             || Hashtbl.mem scev_set (dk.dst_ctx, dk.dst_sid))
        then begin
          pruned := !pruned + dr.d_n;
          acc
        end
        else
          { dk;
            d_count = dr.d_n;
            d_pieces = Fold.Collector.result dr.d_collector;
            src_depth = dr.dr_src_depth;
            dst_depth = dr.dr_dst_depth }
          :: acc)
      e.e_deps []
  in
  if Obs.Registry.enabled () then begin
    Obs.Metrics.add obs_events e.seq;
    Obs.Metrics.set_max obs_peak_shadow e.peak_shadow;
    Obs.Metrics.add obs_pruned_accesses e.n_pruned;
    Obs.Metrics.add obs_dep_edges !total_dep_edges;
    Obs.Metrics.add obs_scev_pruned !pruned
  end;
  { stmts = List.sort (fun a b -> compare a.sk b.sk) stmt_infos;
    deps = List.sort (fun a b -> compare a.dk b.dk) dep_infos;
    pruned_dep_edges = !pruned;
    total_dep_edges = !total_dep_edges;
    statically_pruned = e.n_pruned;
    witnesses = witness_outcomes e;
    stree = e.e_stree;
    cct = e.e_cct;
    run_stats;
    structure = e.e_structure }

let profile ?config ?max_steps ?args ?static_prune prog ~structure =
  Obs.Span.with_ ~cat:"ddg" "ddg.profile" @@ fun () ->
  let e =
    make_engine ?config ?static_prune ~shard:0 ~nshards:1 prog ~structure
  in
  start e;
  let run_stats =
    Vm.Interp.run ?max_steps ?args ~callbacks:(callbacks e) prog
  in
  finish e;
  check_witnesses e;
  finalize e ~run_stats

let profile_replay ?config ?static_prune ~feed ~run_stats prog ~structure =
  Obs.Span.with_ ~cat:"ddg" "ddg.profile_replay" @@ fun () ->
  let e =
    make_engine ?config ?static_prune ~shard:0 ~nshards:1 prog ~structure
  in
  start e;
  feed (callbacks e);
  finish e;
  check_witnesses e;
  finalize e ~run_stats

(* The invariant behind [~static_prune]: modulo the schedule tree and
   CCT (shared mutable structures, compared by their own consumers), a
   pruned-and-injected profile is bit-identical to the unpruned one. *)
let equal_result (a : result) (b : result) =
  a.stmts = b.stmts && a.deps = b.deps
  && a.pruned_dep_edges = b.pruned_dep_edges
  && a.total_dep_edges = b.total_dep_edges

(* ------------------------------------------------------------------ *)
(* Sharded profiling: workers + deterministic merge                     *)
(* ------------------------------------------------------------------ *)

module Sharded = struct
  type partial = {
    pt_shard : int;
    pt_nshards : int;
    pt_stmts : stmt_info list;
    pt_recs : (dep_key * dep_point array) list;
    pt_stree : Sched_tree.t;
    pt_cct : Cct.t;
    pt_intern : Iiv.context array option;  (** lead shard only *)
    pt_events : int;  (** exec events replayed *)
    pt_dep_edges : int;  (** dependence edges this shard discovered *)
    pt_peak_shadow : int;
  }

  let worker ?config ~shard ~nshards ~feed prog ~structure =
    if shard < 0 || shard >= nshards then
      invalid_arg "Depprof.Sharded.worker: shard out of range";
    let e =
      make_engine ?config ~buffer_deps:true ~shard ~nshards prog ~structure
    in
    start e;
    feed (callbacks e);
    finish e;
    let pt_recs =
      vec_fold
        (fun rb acc ->
          ( dep_key_of e ~src:rb.b_src ~dst:rb.b_dst rb.b_kind,
            Array.of_list (List.rev rb.pts) )
          :: acc)
        e.e_recs []
    in
    { pt_shard = shard;
      pt_nshards = nshards;
      pt_stmts = stmt_infos_of e;
      pt_recs;
      pt_stree = e.e_stree;
      pt_cct = e.e_cct;
      pt_intern = (if e.lead then Some (Iiv.snapshot_intern_table ()) else None);
      pt_events = e.seq;
      pt_dep_edges = vec_fold (fun rb acc -> acc + rb.rn) e.e_recs 0;
      pt_peak_shadow = e.peak_shadow }

  (* Fold one merged dependence: replay the collector exactly as the
     sequential engine would have — creation dimensioned by the first
     dynamic edge, every edge counted, points added under the same
     depth guards, in global (event, slot) order. *)
  let fold_dep ?(config = default_config) dk (pts : dep_point array) =
    let first = pts.(0) in
    let dst_depth = Array.length first.p_coords in
    let src_depth = Array.length first.p_lab in
    let collector =
      make_collector config ~cap:dep_cap ~dim:dst_depth ~label_dim:src_depth
    in
    Array.iter
      (fun p ->
        if
          Array.length p.p_coords = dst_depth
          && Array.length p.p_lab = src_depth
        then Fold.Collector.add collector p.p_coords p.p_lab)
      pts;
    { dk;
      d_count = Array.length pts;
      d_pieces = Fold.Collector.result collector;
      src_depth;
      dst_depth }

  let default_pmap thunks = List.map (fun f -> f ()) thunks

  let merge ?(config = default_config) ?(pmap = default_pmap) ~partials
      ~run_stats ~structure () =
    (match partials with
    | [] -> invalid_arg "Depprof.Sharded.merge: no partials"
    | _ -> ());
    let lead =
      match List.find_opt (fun p -> p.pt_shard = 0) partials with
      | Some p -> p
      | None -> invalid_arg "Depprof.Sharded.merge: missing lead shard 0"
    in
    (* make the workers' interned context ids resolvable in this domain
       (all workers intern identically; the lead's snapshot stands for
       all) *)
    (match lead.pt_intern with
    | Some snap -> Iiv.restore_intern_table snap
    | None -> ());
    (* statements: shard-disjoint by construction *)
    let stmt_infos = List.concat_map (fun p -> p.pt_stmts) partials in
    let scev_set = scev_set_of stmt_infos in
    (* dependences: gather per-key edge buffers from every shard *)
    let by_key : (dep_key, dep_point array list) Hashtbl.t =
      Hashtbl.create 512
    in
    List.iter
      (fun p ->
        List.iter
          (fun (k, pts) ->
            if Array.length pts > 0 then
              Hashtbl.replace by_key k
                (pts :: Option.value ~default:[] (Hashtbl.find_opt by_key k)))
          p.pt_recs)
      partials;
    let total_dep_edges = ref 0 in
    let pruned = ref 0 in
    let thunks = ref [] in
    Hashtbl.iter
      (fun dk parts ->
        let n = List.fold_left (fun acc a -> acc + Array.length a) 0 parts in
        total_dep_edges := !total_dep_edges + n;
        if
          config.scev_prune
          && (Hashtbl.mem scev_set (dk.src_ctx, dk.src_sid)
             || Hashtbl.mem scev_set (dk.dst_ctx, dk.dst_sid))
        then pruned := !pruned + n
        else begin
          let pts = Array.concat parts in
          (* restore the sequential insertion order: one edge per
             (event, slot), unique within a key *)
          Array.sort
            (fun a b ->
              if a.p_seq <> b.p_seq then compare a.p_seq b.p_seq
              else compare a.p_slot b.p_slot)
            pts;
          thunks := (fun () -> fold_dep ~config dk pts) :: !thunks
        end)
      by_key;
    let dep_infos = pmap !thunks in
    { stmts = List.sort (fun a b -> compare a.sk b.sk) stmt_infos;
      deps = List.sort (fun a b -> compare a.dk b.dk) dep_infos;
      pruned_dep_edges = !pruned;
      total_dep_edges = !total_dep_edges;
      statically_pruned = 0;
      witnesses = [];
      stree = lead.pt_stree;
      cct = lead.pt_cct;
      run_stats;
      structure }
end

let stmt_domain (s : stmt_info) =
  Minisl.Pset.of_polyhedra s.depth
    (List.map (fun (p : Fold.piece) -> p.Fold.dom) s.s_pieces)

let dep_map (d : dep_info) =
  let pieces =
    List.filter_map
      (fun (p : Fold.piece) ->
        match Fold.piece_label_fn p with
        | Some out -> Some { Minisl.Pmap.dom = p.Fold.dom; out }
        | None -> None)
      d.d_pieces
  in
  if List.length pieces = List.length d.d_pieces then
    Some (Minisl.Pmap.make ~in_dim:d.dst_depth ~out_dim:d.src_depth pieces)
  else None
