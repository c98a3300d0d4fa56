(* The repository benchmark: four workloads over the public pipeline
   calls, every operation checked against a recorded expected-output
   file, end-to-end metrics from an untraced run and per-layer metrics
   from a separate traced run.  See README.md in this directory. *)

let now = Obs.Clock.monotonic
let now_ns = Obs.Clock.now_ns

(* ------------------------------------------------------------------ *)
(* Programs                                                            *)
(* ------------------------------------------------------------------ *)

let find name =
  match Serve.Jobs.find_workload name with
  | Ok w -> w
  | Error e -> failwith e

let polybench = List.map (fun (w : Workloads.Workload.t) -> w.w_name) Workloads.Polybench.all
let pruned_set = polybench @ [ "gems_fdtd" ]
let regular_set = pruned_set @ [ "backprop"; "nn"; "nw"; "hotspot3D" ]

let irregular_set =
  List.filter (fun n -> not (List.mem n regular_set)) Workloads.Rodinia.names

type workload = Regular | Irregular | Pruned | Serve_wl

let workload_of_string = function
  | "regular" -> Regular
  | "irregular" -> Irregular
  | "pruned" -> Pruned
  | "serve" -> Serve_wl
  | s -> failwith ("unknown workload " ^ s)

let programs = function
  | Regular | Serve_wl -> regular_set
  | Irregular -> irregular_set
  | Pruned -> pruned_set

(* ------------------------------------------------------------------ *)
(* Expected outputs: one line per program,
   [name profile-sha256 serve-report-sha256 dynamic-instructions]      *)
(* ------------------------------------------------------------------ *)

type expected = { e_profile : string; e_serve : string; e_instrs : int }

let load_expected path =
  let tbl = Hashtbl.create 64 in
  In_channel.with_open_text path (fun ic ->
      In_channel.input_all ic |> String.split_on_char '\n'
      |> List.iter (fun line ->
             match String.split_on_char ' ' (String.trim line) with
             | [ name; p; s; n ] when name.[0] <> '#' ->
                 Hashtbl.replace tbl name
                   { e_profile = p; e_serve = s; e_instrs = int_of_string n }
             | _ -> ()));
  tbl

let sha = Polyprof.Prog_hash.sha256_hex

(* The profile as printed by the public printers: every folded piece of
   every statement and dependence, then the Table 5 row.  A run whose
   scheduler bailed out keeps no profile, so only its row and dependence
   count are hashed. *)
let profile_digest (o : Workloads.Runner.outcome) =
  let b = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer b in
  (match o.pipeline with
  | None -> Format.fprintf fmt "bailed dep_keys=%d@\n" o.dep_keys
  | Some p ->
      let pieces ps = List.iter (Format.fprintf fmt "  %a@\n" (Fold.pp_piece ?names:None ?label_names:None)) ps in
      List.iter
        (fun (s : Ddg.Depprof.stmt_info) ->
          Format.fprintf fmt "stmt %d %a n=%d@\n" s.sk.s_ctx Vm.Isa.Sid.pp
            s.sk.s_sid s.s_count;
          pieces s.s_pieces)
        p.profile.stmts;
      List.iter
        (fun (d : Ddg.Depprof.dep_info) ->
          Format.fprintf fmt "dep %d:%a -> %d:%a n=%d@\n" d.dk.src_ctx
            Vm.Isa.Sid.pp d.dk.src_sid d.dk.dst_ctx Vm.Isa.Sid.pp d.dk.dst_sid
            d.d_count;
          pieces d.d_pieces)
        p.profile.deps);
  Format.fprintf fmt "row %s@." (String.concat "\t" (Sched.Metrics.to_strings o.row));
  sha (Buffer.contents b)

let serve_spec name = Serve.Proto.spec ~kind:Serve.Proto.Profile ~bench:name ()

let record_expected path =
  let names = regular_set @ irregular_set in
  let lines =
    List.map
      (fun name ->
        let o = Workloads.Runner.run (find name) in
        let p = profile_digest o in
        let pruned = List.mem name pruned_set in
        if pruned
           && profile_digest (Workloads.Runner.run ~static_prune:true (find name)) <> p
        then failwith (name ^ ": pruned profile differs from the unpruned one");
        let s = sha (Serve.Jobs.execute (serve_spec name)).Serve.Engine.x_report in
        Printf.eprintf "%s\n%!" name;
        Printf.sprintf "%s %s %s %d" name p s o.row.ops)
      names
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        "# program profile-sha256 serve-report-sha256 dynamic-instructions\n";
      List.iter (fun l -> output_string oc (l ^ "\n")) lines)

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(* Harrell-Davis estimate of the [q]-quantile: a mean of all order
   statistics weighted by a Beta((n+1)q, (n+1)(1-q)) density.  Unlike a
   single order statistic it does not jump when one sample near the
   quantile is slow, which keeps run-to-run spread low on a noisy host. *)
let quantile q = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let al = q *. float (n + 1) and be = (1. -. q) *. float (n + 1) in
      let k = max 4 (20_000 / n) in
      let h = 1. /. float (n * k) in
      (* midpoint rule on log density, so large n does not underflow *)
      let logf x = ((al -. 1.) *. log x) +. ((be -. 1.) *. log (1. -. x)) in
      let peak = logf (Float.min 0.999999 (Float.max 1e-6 q)) in
      let w =
        Array.init n (fun i ->
            let s = ref 0. in
            for j = 0 to k - 1 do
              let x = (float ((i * k) + j) +. 0.5) *. h in
              s := !s +. exp (logf x -. peak)
            done;
            !s)
      in
      let tot = Array.fold_left ( +. ) 0. w in
      let acc = ref 0. in
      Array.iteri (fun i wi -> acc := !acc +. (wi *. a.(i))) w;
      !acc /. tot

let median = quantile 0.5
let fsum = List.fold_left ( +. ) 0.
let ms_of_ns ns = float ns /. 1e6

(* ------------------------------------------------------------------ *)
(* Metric output                                                       *)
(* ------------------------------------------------------------------ *)

type metric = { m_name : string; m_value : float; m_unit : string; m_n : int }

let m ?(n = 1) m_name m_unit m_value = { m_name; m_value; m_unit; m_n = n }

(* [info] lines are printed for reading but stay out of the JSON *)
let emit ?(info = []) ~attempted ~failed metrics =
  List.iter
    (fun x ->
      Printf.printf "%-28s %16.6f %-8s n=%d\n" x.m_name x.m_value x.m_unit x.m_n)
    (metrics @ info);
  Printf.printf "%-28s %16.6f %-8s n=%d\n" "fail_pct"
    (100. *. float failed /. float (max 1 attempted))
    "%" attempted;
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.m_name
              (num x.m_value) x.m_unit)
          metrics))

(* ------------------------------------------------------------------ *)
(* Set-up: read the expected file, resolve and lower every program of
   the workload (and, for serve, start and stop an engine).  Repeated
   and reported as a median.                                           *)
(* ------------------------------------------------------------------ *)

type ctx = {
  wl : workload;
  expected_path : string;
  names : string list;
  expected : (string, expected) Hashtbl.t;
  lowered : (string * Vm.Prog.t) list;
  lower_ns : int;  (* lowering time of the whole program list *)
}

let scratch_dir = ".perfbench"

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_dir =
  let k = ref 0 in
  fun tag ->
    incr k;
    if not (Sys.file_exists scratch_dir) then Sys.mkdir scratch_dir 0o755;
    let d =
      Filename.concat scratch_dir (Printf.sprintf "%s-%d-%d" tag (Unix.getpid ()) !k)
    in
    rm_rf d;
    Sys.mkdir d 0o755;
    d

let workers = max 1 (Domain.recommended_domain_count () - 1)

let engine_config ~cache_bytes ~dir =
  { Serve.Engine.workers;
    queue_capacity = 4096;
    cache_bytes;
    persist_dir = Some dir;
    default_deadline_s = Some 120. }

let setup_once ~expected_path wl =
  let expected = load_expected expected_path in
  let names = programs wl in
  List.iter
    (fun n -> if not (Hashtbl.mem expected n) then failwith ("no expected output for " ^ n))
    names;
  let t0 = now_ns () in
  let lowered = List.map (fun n -> (n, Vm.Hir.lower (find n).hir)) names in
  let lower_ns = now_ns () - t0 in
  if wl = Serve_wl then begin
    let dir = fresh_dir "setup" in
    let e = Serve.Engine.create ~exec:Serve.Jobs.execute (engine_config ~cache_bytes:1 ~dir) in
    Serve.Engine.shutdown e;
    rm_rf dir
  end;
  { wl; expected_path; names; expected; lowered; lower_ns }

(* One timed set-up: (seconds, lowering ns).  The runs repeat it between
   operations, so that its median, like the other metrics, spans the
   fast and slow phases of a shared host; timed back to back, these few
   milliseconds move by a third from run to run. *)
let timed_setup ctx =
  let t0 = now () in
  let c = setup_once ~expected_path:ctx.expected_path ctx.wl in
  (now () -. t0, float c.lower_ns)

let setup_metric setups =
  m "setup_s" "s" (median (List.map fst setups)) ~n:(List.length setups)

(* ------------------------------------------------------------------ *)
(* Closed loop over Workloads.Runner.run                               *)
(* ------------------------------------------------------------------ *)

let shuffle ~seed ~pass l =
  let a = Array.of_list l in
  let st = Random.State.make [| seed; pass |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* what the traced run reads from a result; results themselves are not
   kept, so they do not count in [peak_heap_mb] *)
type result_stats = { exact_pieces : int; pieces : int; bailed : bool; mem_ops : int }

type op = {
  o_name : string;
  o_s : float;
  o_ok : bool;
  o_stats : result_stats option;  (* traced runs only *)
  o_span : Obs.Span.t option;  (* traced runs only *)
}

let result_stats (o : Workloads.Runner.outcome) =
  let ps =
    match o.pipeline with
    | None -> []
    | Some p ->
        List.concat_map (fun (s : Ddg.Depprof.stmt_info) -> s.s_pieces) p.profile.stmts
        @ List.concat_map (fun (d : Ddg.Depprof.dep_info) -> d.d_pieces) p.profile.deps
  in
  { exact_pieces = List.length (List.filter (fun (x : Fold.piece) -> x.exact) ps);
    pieces = List.length ps;
    bailed = o.sched_bailed;
    mem_ops = o.row.mem }

let op_counter = ref 0

(* One operation: the public pipeline call, timed from outside.  When
   tracing, the bench span wraps the program's own spans, and every
   span of the operation carries its id. *)
let run_op ctx ~traced name =
  let static_prune = ctx.wl = Pruned in
  incr op_counter;
  let id = string_of_int !op_counter in
  if traced then Obs.Span.reset ();
  let start = now_ns () in
  let outcome =
    try Ok (Workloads.Runner.run ~static_prune (find name)) with e -> Error e
  in
  let dur = now_ns () - start in
  let span =
    if not traced then None
    else begin
      let rec tag (s : Obs.Span.t) =
        s.sp_args <- ("op_id", id) :: s.sp_args;
        List.iter tag s.sp_children
      in
      let children = Obs.Span.roots () in
      List.iter tag children;
      Some
        { Obs.Span.sp_name = "bench.op"; sp_cat = "bench";
          sp_tid = (Domain.self () :> int); sp_start_ns = start;
          sp_dur_ns = dur; sp_minor_words = 0.; sp_major_words = 0.;
          sp_top_heap_words = 0; sp_children = children;
          sp_args = [ ("op_id", id); ("program", name) ] }
    end
  in
  let exp = Hashtbl.find ctx.expected name in
  let ok =
    match outcome with
    | Ok o ->
        let same = profile_digest o = exp.e_profile && o.row.ops = exp.e_instrs in
        if not same then Printf.eprintf "%s: output differs from the expected file\n%!" name;
        same
    | Error e ->
        Printf.eprintf "%s: %s\n%!" name (Printexc.to_string e);
        false
  in
  { o_name = name; o_s = float dur /. 1e9; o_ok = ok;
    o_stats =
      (match outcome with Ok o when traced && ok -> Some (result_stats o) | _ -> None);
    o_span = span }

let run_pass ctx ~seed ~pass ~traced =
  List.map (run_op ctx ~traced) (shuffle ~seed ~pass ctx.names)

(* Seeded shuffled passes, one operation after another, until [seconds]
   have elapsed and every program has run at least once; a timed set-up
   follows each operation. *)
let closed_loop ctx ~seed ~seconds =
  let t0 = now () in
  let rec go pass todo acc setups =
    match todo with
    | [] -> go (pass + 1) (shuffle ~seed ~pass:(pass + 1) ctx.names) acc setups
    | _ when pass > 0 && now () -. t0 >= seconds -> (List.rev acc, setups)
    | name :: rest ->
        let op = run_op ctx ~traced:false name in
        go pass rest (op :: acc) (timed_setup ctx :: setups)
  in
  go 0 (shuffle ~seed ~pass:0 ctx.names) [] []

(* Each program's median: quantiles over these, and the pass time they
   add up to, do not depend on how many passes fitted in the run or how
   often serve drew each program, and a short slow phase of the host
   moves them less than a sum would. *)
let per_program_medians samples =
  List.sort_uniq compare (List.map fst samples)
  |> List.map (fun n ->
         (n, median (List.filter_map (fun (p, x) -> if p = n then Some x else None) samples)))

(* dynamic instructions of one pass over the time of a median pass *)
let ops_per_s ctx ops =
  let meds = per_program_medians (List.map (fun o -> (o.o_name, o.o_s)) ops) in
  float (List.fold_left (fun a (n, _) -> a + (Hashtbl.find ctx.expected n).e_instrs) 0 meds)
  /. fsum (List.map snd meds)

let peak_heap_mb () =
  float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let failures ops = List.length (List.filter (fun o -> not o.o_ok) ops)

(* ------------------------------------------------------------------ *)
(* Open loop over Serve.Engine with the real Serve.Jobs.execute        *)
(* ------------------------------------------------------------------ *)

(* Zipf weights by the fixed rank order of the program list; the seed
   only drives the draw.  The sequence holds each program's expected
   count (largest remainder) in a seeded random order. *)
let zipf_sequence ~names ~s ~n ~seed =
  let k = List.length names in
  let w = List.init k (fun i -> 1. /. (float (i + 1) ** s)) in
  let tot = fsum w in
  let exact = List.map (fun x -> float n *. x /. tot) w in
  let counts = Array.of_list (List.map (fun x -> int_of_float x) exact) in
  let rem = n - Array.fold_left ( + ) 0 counts in
  List.mapi (fun i x -> (i, x -. Float.of_int counts.(i))) exact
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.iteri (fun r (i, _) -> if r < rem then counts.(i) <- counts.(i) + 1);
  let seq = List.concat (List.mapi (fun i n -> List.init counts.(i) (fun _ -> n)) names) in
  shuffle ~seed ~pass:(-1) seq

(* At 100 jobs/s about half of the worker capacity of a 2-core host goes
   to cache misses: the cache holds about 16 of the 17 reports. *)
let zipf_s = 1.0
let cache_bytes = 32_000

type serve_params = { rate : float;  (* jobs per second *) warmup_s : float }

let serve_params = { rate = 100.; warmup_s = 8. }

type sample = {
  due : float;
  sent : float;
  returned : float;
  outcome : Serve.Engine.submit_outcome;
  measured : bool;
}

type session = {
  hits : (string * float) list;  (* program, seconds from due time *)
  setups : (float * float) list;  (* timed during the warm-up *)
  cold_s : float list;  (* executed or joined jobs, from due time *)
  lag_ms : float list;
  queue_ms : float list;
  exec_ms : float list;
  store_us : float list;
  lookup_us : float list;
  exec_instrs : int;
  s_attempted : int;
  s_failed : int;
  joined : int;
  evictions : int;
  n_hits : int;
  n_jobs : int;
}

(* Sleep to 1 ms before the due time, then spin: a sleep overshoots by
   a scheduler tick when the other core is busy, which would make
   requests late. *)
let wait_until due =
  let slack = due -. now () -. 0.001 in
  if slack > 0. then Unix.sleepf slack;
  while now () < due do
    Domain.cpu_relax ()
  done

(* durations (us) of the named events of a job's Chrome trace *)
let trace_events json =
  match Obs.Json_emit.parse json with
  | Error _ -> []
  | Ok j -> (
      match Obs.Json_emit.member "traceEvents" j with
      | Some (Obs.Json_emit.List evs) ->
          List.filter_map
            (fun ev ->
              match (Obs.Json_emit.member "name" ev, Obs.Json_emit.member "dur" ev) with
              | Some (Obs.Json_emit.Str n), Some (Obs.Json_emit.Float d) -> Some (n, d)
              | Some (Obs.Json_emit.Str n), Some (Obs.Json_emit.Int d) -> Some (n, float d)
              | _ -> None)
            evs
      | _ -> [])

let serve_session ctx ~names ~params ~seed ~seconds =
  let dir = fresh_dir "serve" in
  let engine =
    Serve.Engine.create ~exec:Serve.Jobs.execute
      (engine_config ~cache_bytes ~dir)
  in
  let keys = Hashtbl.create 32 in
  List.iter
    (fun n ->
      match Serve.Jobs.job_key (serve_spec n) with
      | Ok k -> Hashtbl.replace keys n k
      | Error e -> failwith e)
    names;
  let n_warm = int_of_float (params.rate *. params.warmup_s) in
  let n_meas = int_of_float (params.rate *. seconds) in
  let seq =
    zipf_sequence ~names ~s:zipf_s ~n:(n_warm + n_meas) ~seed
  in
  let t0 = now () +. 0.01 in
  let evict0 = ref 0 and setups = ref [] in
  let samples =
    List.mapi
      (fun i name ->
        let due = t0 +. (float i /. params.rate) in
        if i = n_warm then
          evict0 := (Serve.Engine.stats engine).s_cache.c_evictions;
        wait_until due;
        let sent = now () in
        let outcome =
          Serve.Engine.submit engine ~key:(Hashtbl.find keys name) (serve_spec name)
        in
        let returned = now () in
        if i < n_warm && i mod 50 = 25 then setups := timed_setup ctx :: !setups;
        (name, { due; sent; returned; outcome; measured = i >= n_warm }))
      seq
  in
  let st_end = Serve.Engine.stats engine in
  (* wait for every job still queued or running *)
  List.iter
    (fun (_, s) ->
      match s.outcome with
      | Serve.Engine.Enqueued j ->
          ignore (Serve.Engine.await engine j.j_id ~timeout_s:170. ())
      | _ -> ())
    samples;
  Serve.Engine.shutdown engine;
  rm_rf dir;
  (* when each executed job reached its terminal state *)
  let sent_of = Hashtbl.create 256 in
  List.iter
    (fun (_, s) ->
      match s.outcome with
      | Serve.Engine.Enqueued j -> Hashtbl.replace sent_of j.j_id s.sent
      | _ -> ())
    samples;
  let finished (j : Serve.Engine.job) =
    Option.map (fun sent -> sent +. j.j_wall_s) (Hashtbl.find_opt sent_of j.j_id)
  in
  let failed = ref 0 and attempted = ref 0 in
  let acc = Hashtbl.create 8 in
  let push k v = Hashtbl.replace acc k (v :: Option.value ~default:[] (Hashtbl.find_opt acc k)) in
  let get k = Option.value ~default:[] (Hashtbl.find_opt acc k) in
  let exec_instrs = ref 0 and n_hits = ref 0 and joined = ref 0 in
  let hits = ref [] in
  let check name (j : Serve.Engine.job) =
    let exp = (Hashtbl.find ctx.expected name).e_serve in
    match (j.j_state, j.j_report) with
    | Serve.Proto.Done, Some r when sha r = exp -> true
    | _ ->
        Printf.eprintf "serve %s: job %d failed or differs from the expected file\n%!"
          name j.j_id;
        false
  in
  List.iter
    (fun (name, s) ->
      incr attempted;
      let ok =
        match s.outcome with
        | Serve.Engine.Hit j ->
            if s.measured then begin
              incr n_hits;
              hits := (name, s.returned -. s.due) :: !hits;
              push "lag" ((s.sent -. s.due) *. 1e3);
              List.iter
                (fun (n, d) -> if n = "cache.hit" then push "lookup" d)
                (trace_events (Option.value ~default:"" j.j_trace_json))
            end;
            check name j
        | Serve.Engine.Joined j | Serve.Engine.Enqueued j ->
            (match s.outcome with Serve.Engine.Joined _ when s.measured -> incr joined | _ -> ());
            let ok = check name j in
            if s.measured then begin
              push "lag" ((s.sent -. s.due) *. 1e3);
              Option.iter (fun fin -> push "cold" (fin -. s.due)) (finished j)
            end;
            (match s.outcome with
            | Serve.Engine.Enqueued _ when s.measured && ok ->
                exec_instrs := !exec_instrs + (Hashtbl.find ctx.expected name).e_instrs;
                List.iter
                  (fun (n, d) ->
                    match n with
                    | "queue.wait" -> push "queue" (d /. 1e3)
                    | "execute" -> push "exec" (d /. 1e3)
                    | "cache.store" -> push "store" d
                    | _ -> ())
                  (trace_events (Option.value ~default:"" j.j_trace_json))
            | _ -> ());
            ok
        | Serve.Engine.Overloaded | Serve.Engine.Closed ->
            Printf.eprintf "serve %s: submission refused\n%!" name;
            false
      in
      if not ok then incr failed)
    samples;
  { hits = !hits; setups = !setups; cold_s = get "cold"; lag_ms = get "lag";
    queue_ms = get "queue"; exec_ms = get "exec"; store_us = get "store";
    lookup_us = get "lookup"; exec_instrs = !exec_instrs;
    s_attempted = !attempted; s_failed = !failed; joined = !joined;
    evictions = st_end.s_cache.c_evictions - !evict0;
    n_hits = !n_hits; n_jobs = n_meas }

let serve_ops_per_s s = float s.exec_instrs /. (fsum s.exec_ms /. 1e3)

let serve_layers (s : session) =
  let hits_us = List.map (fun (_, x) -> x *. 1e6) s.hits in
  let n_cold = List.length s.cold_s and n_hit = List.length hits_us in
  let n_exec = List.length s.exec_ms in
  [ m "serve.queue_wait_p50_ms" "ms" (median s.queue_ms) ~n:n_exec;
    m "serve.queue_wait_p90_ms" "ms" (quantile 0.9 s.queue_ms) ~n:n_exec;
    m "serve.execute_ms" "ms" (median s.exec_ms) ~n:n_exec;
    m "serve.cache_store_us" "us" (median s.store_us) ~n:(List.length s.store_us);
    m "serve.cache_lookup_us" "us" (median s.lookup_us) ~n:(List.length s.lookup_us);
    m "serve.hit_ratio" "ratio" (float s.n_hits /. float (max 1 s.n_jobs)) ~n:s.n_jobs;
    m "serve.joined" "count" (float s.joined) ~n:s.n_jobs;
    m "serve.evictions" "count" (float s.evictions) ~n:s.n_jobs;
    m "serve.gen_lag_ms" "ms" (quantile 0.9 s.lag_ms) ~n:(List.length s.lag_ms);
    m "cold_p50_s" "s" (median s.cold_s) ~n:n_cold;
    m "cold_p90_s" "s" (quantile 0.9 s.cold_s) ~n:n_cold;
    m "hit_p50_us" "us" (median hits_us) ~n:n_hit;
    m "hit_p90_us" "us" (quantile 0.9 hits_us) ~n:n_hit ]

(* ------------------------------------------------------------------ *)
(* End-to-end run (--trace 0)                                          *)
(* ------------------------------------------------------------------ *)

(* Zipf rank order of the serve workload: the larger a program (in
   dynamic instructions), the more often it is requested. *)
let by_size ctx =
  List.stable_sort
    (fun a b ->
      compare (Hashtbl.find ctx.expected b).e_instrs (Hashtbl.find ctx.expected a).e_instrs)
    ctx.names

let end_to_end ctx ~seed ~seconds : int * int * metric list * metric list =
  match ctx.wl with
  | Serve_wl ->
      let s =
        serve_session ctx ~names:(by_size ctx) ~params:serve_params ~seed ~seconds
      in
      (* A program's median over all its jobs flips between a hit and a
         cold run when its miss ratio nears one half, so serve's job
         latency is the cache-hit path; cold runs are gated through
         ops_per_s and printed as cold_p50_s / cold_p90_s.  Each
         program's median hit latency counts once per hit: the rarely
         requested programs have few hits, and their noisy medians would
         otherwise set the p90. *)
      let meds =
        List.concat_map
          (fun (p, med) ->
            List.filter_map (fun (q, _) -> if q = p then Some med else None) s.hits)
          (per_program_medians s.hits)
      in
      let n = List.length s.hits in
      ( s.s_attempted,
        s.s_failed,
        [ setup_metric s.setups;
          m "ops_per_s" "1/s" (serve_ops_per_s s) ~n:(List.length s.exec_ms);
          m "job_p50_s" "s" (median meds) ~n;
          m "job_p90_s" "s" (quantile 0.9 meds) ~n;
          m "peak_heap_mb" "MB" (peak_heap_mb ()) ],
        serve_layers s )
  | _ ->
      let ops, setups = closed_loop ctx ~seed ~seconds in
      let meds = List.map snd (per_program_medians (List.map (fun o -> (o.o_name, o.o_s)) ops)) in
      let n = List.length ops in
      ( n,
        failures ops,
        [ setup_metric setups;
          m "ops_per_s" "1/s" (ops_per_s ctx ops) ~n;
          m "job_p50_s" "s" (median meds) ~n;
          m "job_p90_s" "s" (quantile 0.9 meds) ~n;
          m "peak_heap_mb" "MB" (peak_heap_mb ()) ],
        [] )

(* ------------------------------------------------------------------ *)
(* Traced run (--trace 1): per-layer metrics                           *)
(* ------------------------------------------------------------------ *)

(* spans named [name] anywhere under [s] *)
let rec find_spans name (s : Obs.Span.t) =
  (if s.sp_name = name then [ s ] else [])
  @ List.concat_map (find_spans name) s.sp_children

let sum_dur spans = List.fold_left (fun a (s : Obs.Span.t) -> a + s.sp_dur_ns) 0 spans

let counter snap name =
  List.fold_left
    (fun acc ((d : Obs.Metrics.desc), v) ->
      match v with
      | Obs.Metrics.Vint i when d.d_name = name -> acc + i
      | _ -> acc)
    0 snap

(* The program's spans of one operation sit under its [workload.<name>]
   span; the operation's self time is what its direct children (lowering,
   CFG build, static analysis, profiling) leave: the scheduling stage,
   metrics and the Polly baseline. *)
let op_children (op : Obs.Span.t) =
  List.concat_map (fun (r : Obs.Span.t) -> r.sp_children) op.sp_children

(* run with telemetry off *)
let native_ns ctx =
  List.map
    (fun (_, prog) ->
      let t0 = now_ns () in
      let st = Vm.Interp.run prog in
      (now_ns () - t0, st.Vm.Interp.dyn_instrs))
    ctx.lowered

let pipeline_layers ctx ops ~snap ~native =
  let spans = List.filter_map (fun o -> o.o_span) ops in
  let n_ops = float (List.length spans) in
  let all name = List.concat_map (find_spans name) spans in
  let profiles = all "ddg.profile" in
  let under name = List.concat_map (find_spans name) profiles in
  let profile_ns = sum_dur profiles in
  let events_ns = sum_dur (under "vm.interp.run") in
  let fin = under "ddg.finalize" in
  let fin_ns = sum_dur fin in
  let fin_words = fsum (List.map (fun (s : Obs.Span.t) -> s.sp_minor_words) fin) in
  let c = counter snap in
  let points = c "fold.points" and pieces = c "fold.pieces" in
  let events = c "ddg.profile.events" and edges = c "ddg.result.dep_edges" in
  let self_ns =
    List.fold_left
      (fun a (s : Obs.Span.t) -> a + s.sp_dur_ns - sum_dur (op_children s))
      0 spans
  in
  let stats = List.filter_map (fun o -> o.o_stats) ops in
  let total f = List.fold_left (fun a x -> a + f x) 0 stats in
  let native_total = List.fold_left (fun a (ns, _) -> a + ns) 0 native in
  let native_instrs = List.fold_left (fun a (_, i) -> a + i) 0 native in
  let ratio a b = if b = 0 then 0. else float a /. float b in
  let n = List.length spans in
  (* Statdep runs inside the pruned workload's operations; elsewhere it
     is timed on each program by itself *)
  let statdep_ms, statdep_n =
    if ctx.wl = Pruned then (ms_of_ns (sum_dur (all "analysis.statdep")) /. n_ops, n)
    else
      let ns =
        List.map
          (fun (_, prog) ->
            let t0 = now_ns () in
            ignore (Analysis.Statdep.analyse prog);
            now_ns () - t0)
          ctx.lowered
      in
      (ms_of_ns (List.fold_left ( + ) 0 ns) /. float (List.length ns), List.length ns)
  in
  [ m "vm.native_ns_per_instr" "ns" (ratio native_total native_instrs) ~n:(List.length native);
    m "cfg.build_ms" "ms" (ms_of_ns (sum_dur (all "cfg.build")) /. n_ops) ~n;
    m "ddg.profile_ms" "ms" (ms_of_ns profile_ns /. n_ops) ~n;
    m "ddg.events_ms" "ms" (ms_of_ns events_ns /. n_ops) ~n;
    m "ddg.ns_per_event" "ns" (ratio events_ns events) ~n;
    m "ddg.finalize_ms" "ms" (ms_of_ns fin_ns /. n_ops) ~n;
    m "ddg.finalize_share" "ratio" (ratio fin_ns profile_ns) ~n;
    m "ddg.events" "count" (float events) ~n;
    m "ddg.dep_edges" "count" (float edges) ~n;
    m "ddg.scev_pruned_pct" "%" (100. *. ratio (c "ddg.result.scev_pruned_edges") edges) ~n;
    m "ddg.peak_shadow" "count" (float (c "ddg.profile.peak_shadow")) ~n;
    m "ddg.slowdown_x" "x" (ratio profile_ns native_total) ~n;
    m "fold.ns_per_point" "ns" (ratio fin_ns points) ~n;
    m "fold.words_per_point" "words" (fin_words /. float (max 1 points)) ~n;
    m "fold.points" "count" (float points) ~n;
    m "fold.pieces" "count" (float pieces) ~n;
    m "fold.points_per_piece" "count" (ratio points pieces) ~n;
    m "fold.approx_spills" "count" (float (c "fold.approx_spills")) ~n;
    m "fold.exact_pct" "%"
      (100. *. ratio (total (fun x -> x.exact_pieces)) (total (fun x -> x.pieces)))
      ~n:(List.length stats);
    m "sched.ms" "ms" (ms_of_ns self_ns /. n_ops) ~n;
    m "sched.bailouts" "count" (float (List.length (List.filter (fun x -> x.bailed) stats))) ~n;
    m "statdep.analyse_ms" "ms" statdep_ms ~n:statdep_n;
    m "statdep.pruned_pct" "%"
      (100. *. ratio (c "ddg.profile.pruned_accesses") (total (fun x -> x.mem_ops)))
      ~n;
    (* each witness-failure rerun is one more ddg.profile span *)
    m "statdep.reruns" "count" (float (List.length profiles - n)) ~n ]

(* A short serve session on the workload's cheapest program: one cold
   execution, then hits at a fixed rate.  It measures the serve layer
   on workloads whose own operations bypass it. *)
let serve_probe ctx ~seed =
  let cheapest =
    List.fold_left
      (fun (bn, bi) n ->
        let i = (Hashtbl.find ctx.expected n).e_instrs in
        if i < bi then (n, i) else (bn, bi))
      ("", max_int) ctx.names
    |> fst
  in
  serve_session ctx ~names:[ cheapest ] ~seed ~seconds:1.
    ~params:{ rate = 200.; warmup_s = 0. }

let write_spans ctx ~seed spans =
  let path =
    Filename.concat scratch_dir
      (Printf.sprintf "spans-%s-%d.json"
         (match ctx.wl with
         | Regular -> "regular" | Irregular -> "irregular"
         | Pruned -> "pruned" | Serve_wl -> "serve")
         seed)
  in
  if not (Sys.file_exists scratch_dir) then Sys.mkdir scratch_dir 0o755;
  Obs.Chrome.write_file ~path ~process_name:"perfbench" spans;
  Printf.printf "spans: %s\n" path

let traced ctx ~seed ~seconds =
  (* untraced and traced measurement on the same seed *)
  let untraced_ops_per_s, traced_ops_per_s, ops, snap, extra, attempted, failed =
    match ctx.wl with
    | Serve_wl ->
        let s0 = serve_session ctx ~names:(by_size ctx) ~params:serve_params ~seed ~seconds in
        Obs.Registry.enable ();
        let s1 = serve_session ctx ~names:(by_size ctx) ~params:serve_params ~seed ~seconds in
        (* the engine's workers drop Obs spans after every job, so the
           pipeline layers are read from a sequential traced pass over
           the same programs *)
        Obs.Metrics.reset ();
        let ops = run_pass ctx ~seed ~pass:0 ~traced:true in
        let snap = Obs.Metrics.snapshot () in
        ( serve_ops_per_s s0, serve_ops_per_s s1, ops, snap, s1,
          s0.s_attempted + s1.s_attempted + List.length ops,
          s0.s_failed + s1.s_failed + failures ops )
    | _ ->
        let u = run_pass ctx ~seed ~pass:0 ~traced:false in
        Obs.Registry.enable ();
        Obs.Metrics.reset ();
        let ops = run_pass ctx ~seed ~pass:0 ~traced:true in
        let snap = Obs.Metrics.snapshot () in
        Obs.Registry.disable ();
        let probe = serve_probe ctx ~seed in
        ( ops_per_s ctx u, ops_per_s ctx ops, ops, snap, probe,
          List.length u + List.length ops + probe.s_attempted,
          failures u + failures ops + probe.s_failed )
  in
  Obs.Registry.disable ();
  let native = native_ns ctx in
  let pipeline = pipeline_layers ctx ops ~snap ~native in
  write_spans ctx ~seed (List.filter_map (fun o -> o.o_span) ops);
  let n_prog = List.length ctx.names in
  let lower_ns = median (List.init 15 (fun _ -> snd (timed_setup ctx))) in
  ( attempted,
    failed,
    [ m "vm.lower_ms" "ms" (lower_ns /. 1e6 /. float n_prog) ~n:(15 * n_prog) ]
    @ pipeline
    @ serve_layers extra
    @ [ m "bench.trace_overhead_pct" "%"
          (100. *. ((untraced_ops_per_s /. traced_ops_per_s) -. 1.)) ~n:2 ],
    [] )

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let expected = ref "perfbench/expected.txt" and record = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "regular|irregular|pruned|serve");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  measuring time of one run");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end or per-layer metrics");
      ("--expected", Arg.Set_string expected, "FILE  expected-output file");
      ("--record-expected", Arg.Set_string record, "FILE  write the expected-output file and exit") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  Obs.Registry.disable ();
  if !record <> "" then record_expected !record
  else begin
    let wl = workload_of_string !workload in
    let ctx = setup_once ~expected_path:!expected wl in
    let attempted, failed, metrics, info =
      if !trace = 0 then end_to_end ctx ~seed:!seed ~seconds:!seconds
      else traced ctx ~seed:!seed ~seconds:!seconds
    in
    emit ~info ~attempted ~failed metrics
  end
