(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (PPoPP 2019, "Data-Flow/Dependence Profiling for Structured
   Transformations").

   - Tables 1 & 2 (+ Fig. 6): raw dependence stream of bpnn_layerforward
     and its folded polyhedral form.
   - Table 3: backprop case study - feedback + measured interchange
     speedups (Bechamel, this machine).
   - Table 4: GemsFDTD case study - tiling feedback + measured speedups.
   - Table 5: the full mini-Rodinia summary, measured vs. paper.
   - Fig. 7: annotated flame graph for backprop (SVG + ASCII).
   - Section 8 overhead: instrumentation slowdown over native execution.

   Absolute numbers differ from the paper (the substrate is MiniVM, the
   machine is not the authors' Xeon); the comparison targets are the
   shapes: who wins, what is suggested, which reasons block Polly. *)

open Bechamel
open Bechamel.Toolkit

let section title =
  Format.printf "@.=======================================================@.";
  Format.printf "== %s@." title;
  Format.printf "=======================================================@."

(* ------------------------------------------------------------------ *)
(* Bechamel helpers: nanoseconds and minor words per run               *)
(* ------------------------------------------------------------------ *)

(* OLS estimates per run of [fn]: [| nanoseconds; minor words |] *)
let ols_estimates ~name fn =
  let test = Test.make ~name (Staged.stage fn) in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.4) ~kde:None
      ~stabilize:false ()
  in
  let instances = [ Instance.monotonic_clock; Instance.minor_allocated ] in
  let raw = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  Array.of_list
    (List.map
       (fun instance ->
         let results = Analyze.all ols instance raw in
         match Hashtbl.fold (fun _ v acc -> v :: acc) results [] with
         | v :: _ -> (
             match Analyze.OLS.estimates v with
             | Some (e :: _) -> e
             | _ -> nan)
         | [] -> nan)
       instances)

let time_ns ~name fn = (ols_estimates ~name fn).(0)

(* ------------------------------------------------------------------ *)
(* Tables 1 & 2: dependency stream and folded dependences (Fig. 6)     *)
(* ------------------------------------------------------------------ *)

(* the Fig. 6 kernel at the paper's size: n2 = 16, n1 = 42 *)
let fig6_hir : Vm.Hir.program =
  let open Vm.Hir.Dsl in
  let module H = Vm.Hir in
  let n1 = 42 and n2 = 16 in
  { H.funs =
      Workloads.Workload.libm
      @ [ H.fundef "bpnn_layerforward" [ "l1"; "l2"; "conn"; "n1"; "n2" ]
            [ H.Store (v "l1", f 1.0);
              H.for_ ~loc:(Workloads.Workload.loc "backprop.c" 253) "j" (i 1)
                (v "n2" +! i 1)
                [ H.Let ("sum", f 0.0);
                  H.for_ ~loc:(Workloads.Workload.loc "backprop.c" 254) "k"
                    (i 0) (v "n1" +! i 1)
                    [ H.Let ("tmp1", load (v "conn" +! v "k"));
                      H.Let ("tmp2", load (v "tmp1" +! v "j"));
                      H.Let ("tmp3", load (v "l1" +! v "k"));
                      H.Let ("sum", v "sum" +? (v "tmp2" *? v "tmp3")) ];
                  H.CallS (Some "sq", "squash", [ v "sum" ]);
                  H.Store (v "l2" +! v "j", v "sq") ] ];
          H.fundef "main" []
            (Workloads.Workload.init_float_array "l1v" (n1 + 1)
            @ Workloads.Workload.init_float_array "rows" ((n1 + 1) * (n2 + 1))
            @ [ (* conn is a row-pointer table, exactly like Fig. 6's
                   two-level array *)
                Workloads.Workload.init_int_array "connp" (n1 + 1) (fun t ->
                    base "rows" +! (t *! i (n2 + 1)));
                H.CallS
                  ( None, "bpnn_layerforward",
                    [ base "l1v"; base "l2v"; base "connp"; i n1; i n2 ] ) ]) ];
    arrays =
      [ ("l1v", n1 + 1); ("l2v", n2 + 1); ("rows", (n1 + 1) * (n2 + 1));
        ("connp", n1 + 1) ];
    main = "main" }

let tables_1_and_2 () =
  section "Tables 1 & 2: dependency stream of bpnn_layerforward (Fig. 6)";
  let prog = Vm.Hir.lower fig6_hir in
  let structure = Cfg.Cfg_builder.run prog in
  let kernel_fid = (Vm.Prog.func_by_name prog "bpnn_layerforward").Vm.Prog.fid in
  (* Table 1: the raw dependence stream, as the profiler buffers it
     before folding: the edges of one unsharded worker, between kernel
     statements at depth 2, grouped by instruction pair and put back in
     execution order *)
  let part =
    Ddg.Depprof.Sharded.worker ~shard:0 ~nshards:1
      ~feed:(fun callbacks -> ignore (Vm.Interp.run ~callbacks prog))
      prog ~structure
  in
  let in_kernel sid = Vm.Isa.Sid.fid sid = kernel_fid in
  let at_depth_2 (p : Ddg.Depprof.dep_point) =
    Array.length p.p_coords = 2 && Array.length p.p_lab = 2
  in
  let samples = Hashtbl.create 16 in
  List.iter
    (fun ((k : Ddg.Depprof.dep_key), pts) ->
      let pts = List.filter at_depth_2 (Array.to_list pts) in
      if in_kernel k.src_sid && in_kernel k.dst_sid && pts <> [] then begin
        let key =
          Printf.sprintf "I%d -> I%d"
            (Vm.Isa.Sid.idx k.src_sid + 1)
            (Vm.Isa.Sid.idx k.dst_sid + 1)
        in
        let prev = Option.value ~default:[] (Hashtbl.find_opt samples key) in
        Hashtbl.replace samples key (pts @ prev)
      end)
    part.Ddg.Depprof.Sharded.pt_recs;
  Format.printf
    "Table 1 (input dependency stream; first samples per dependence):@.";
  let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) samples []) in
  List.iter
    (fun key ->
      let all =
        List.sort
          (fun (a : Ddg.Depprof.dep_point) (b : Ddg.Depprof.dep_point) ->
            compare (a.p_seq, a.p_slot) (b.p_seq, b.p_slot))
          (Hashtbl.find samples key)
      in
      Format.printf "  %s   (%d dynamic edges)@." key (List.length all);
      List.iteri
        (fun k (p : Ddg.Depprof.dep_point) ->
          if k < 3 then
            Format.printf "    (cj,ck) = %s   <- (cj',ck') = %s@."
              (Pp_util.Vecint.to_string p.p_coords)
              (Pp_util.Vecint.to_string p.p_lab))
        all)
    keys;
  (* Table 2: the folded output, straight from the pipeline *)
  Format.printf "@.Table 2 (folded dependences of the kernel):@.";
  let res = Ddg.Depprof.profile prog ~structure in
  List.iter
    (fun (d : Ddg.Depprof.dep_info) ->
      if
        Vm.Isa.Sid.fid d.dk.src_sid = kernel_fid
        && Vm.Isa.Sid.fid d.dk.dst_sid = kernel_fid
        && d.dst_depth = 2 && d.src_depth = 2
      then begin
        Format.printf "  I%d -> I%d:@."
          (Vm.Isa.Sid.idx d.dk.src_sid + 1)
          (Vm.Isa.Sid.idx d.dk.dst_sid + 1);
        List.iter
          (fun p ->
            Format.printf "    %a@."
              (Fold.pp_piece ~names:[| "cj"; "ck" |]
                 ~label_names:[| "cj'"; "ck'" |])
              p)
          d.d_pieces
      end)
    res.Ddg.Depprof.deps;
  Format.printf
    "@.(SCEV recognition pruned %d of %d dynamic dependence edges)@."
    res.Ddg.Depprof.pruned_dep_edges res.Ddg.Depprof.total_dep_edges

(* ------------------------------------------------------------------ *)
(* Table 3: backprop case study                                        *)
(* ------------------------------------------------------------------ *)

let table_3 () =
  section "Table 3: backprop case study";
  let o = Workloads.Runner.run Workloads.Backprop.workload in
  (match o.pipeline with
  | Some t ->
      Format.printf "%a@." (Sched.Feedback.render ?fname:None) t.Polyprof.feedback
  | None -> Format.printf "(pipeline bailed out?)@.");
  (* measured speedups of the suggested interchange, like the paper's
     GFlop/s comparison on its Xeon *)
  let n1 = 32768 and n2 = 16 in
  let inst = Kernels.Backprop_kernels.create ~n1 ~n2 in
  let t_lf_orig =
    time_ns ~name:"layerforward-original" (fun () ->
        Kernels.Backprop_kernels.layerforward_original inst)
  in
  let t_lf_int =
    time_ns ~name:"layerforward-interchanged" (fun () ->
        Kernels.Backprop_kernels.layerforward_interchanged inst)
  in
  let t_aw_orig =
    time_ns ~name:"adjust-original" (fun () ->
        Kernels.Backprop_kernels.adjust_original inst)
  in
  let t_aw_int =
    time_ns ~name:"adjust-interchanged" (fun () ->
        Kernels.Backprop_kernels.adjust_interchanged inst)
  in
  Format.printf
    "measured on this machine (n1=%d, n2=%d):@.\
    \  bpnn_layerforward : %.0f ns -> %.0f ns  (speedup %.2fx; paper: 5.3x \
     on a Xeon)@.\
    \  bpnn_adjust_weights: %.0f ns -> %.0f ns  (speedup %.2fx; paper: 7.8x)@."
    n1 n2 t_lf_orig t_lf_int (t_lf_orig /. t_lf_int) t_aw_orig t_aw_int
    (t_aw_orig /. t_aw_int)

(* ------------------------------------------------------------------ *)
(* Table 4: GemsFDTD case study                                        *)
(* ------------------------------------------------------------------ *)

let table_4 () =
  section "Table 4: GemsFDTD case study";
  let o = Workloads.Runner.run Workloads.Gems_fdtd.workload in
  (match o.pipeline with
  | Some t -> Format.printf "%a@." (Sched.Feedback.render ?fname:None) t.Polyprof.feedback
  | None -> Format.printf "(pipeline bailed out?)@.");
  let n = 256 in
  let inst = Kernels.Gems_kernels.create ~n in
  let t_orig =
    time_ns ~name:"gems-update-original" (fun () ->
        Kernels.Gems_kernels.update_original inst)
  in
  let t_tiled =
    time_ns ~name:"gems-update-tiled" (fun () ->
        Kernels.Gems_kernels.update_tiled ~tile:12 inst)
  in
  Format.printf
    "measured on this machine (n=%d):@.\
    \  update kernel: %.0f ns -> %.0f ns  (speedup %.2fx; paper: 2.6x / 1.9x \
     with OMP wavefront)@."
    n t_orig t_tiled (t_orig /. t_tiled)

(* ------------------------------------------------------------------ *)
(* Table 5: Rodinia summary                                            *)
(* ------------------------------------------------------------------ *)

let table_5 () =
  section "Table 5: mini-Rodinia summary (measured, with paper reference rows)";
  let results = Workloads.Runner.run_all () in
  print_string (Workloads.Runner.table5_with_paper results);
  (* Experiment II summary *)
  Format.printf
    "@.Experiment II (static Polly baseline): failure reasons per benchmark@.";
  List.iter
    (fun ((w : Workloads.Workload.t), (o : Workloads.Runner.outcome)) ->
      Format.printf "  %-14s measured %-7s paper %-7s %s@." w.w_name
        (Staticbase.Polly_lite.reasons_string o.polly)
        (match w.paper with Some p -> p.p_polly | None -> "?")
        (if
           match w.paper with
           | Some p -> Staticbase.Polly_lite.reasons_string o.polly = p.p_polly
           | None -> false
         then "[match]"
         else "[differs]"))
    results

(* ------------------------------------------------------------------ *)
(* Case studies, closed loop: apply the feedback and verify it         *)
(* ------------------------------------------------------------------ *)

let casestudy_verify () =
  section
    "Case studies I & II, closed loop: apply the suggested schedules and \
     verify them differentially";
  let detailed =
    [ Workloads.Backprop.workload; Workloads.Gems_fdtd.workload ]
  in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let s = Polyprof.apply_and_verify ~name:w.w_name w.hir in
      Format.printf "%a@." Xform.Driver.pp_summary s)
    detailed;
  Format.printf
    "@.Suite-wide summary (every benchmark, every suggested plan):@.";
  let results = Workloads.Runner.run_all ~xverify:true () in
  print_string (Workloads.Runner.verify_table results)

(* ------------------------------------------------------------------ *)
(* Fig. 7: annotated flame graph                                        *)
(* ------------------------------------------------------------------ *)

let fig_7 () =
  section "Fig. 7: annotated flame graph for backprop";
  let t = Polyprof.run_hir Workloads.Backprop.workload.Workloads.Workload.hir in
  let path = "docs/fig7_backprop.svg" in
  (if not (Sys.file_exists "docs") then
     try Sys.mkdir "docs" 0o755 with Sys_error _ -> ());
  let annot = Report.Flamegraph.annot_of_analysis t.Polyprof.prog t.Polyprof.analysis in
  Report.Flamegraph.write_svg ~path ~annot
    ~name:(Polyprof.ctx_name t) t.Polyprof.profile.Ddg.Depprof.stree;
  Format.printf "SVG written to %s@.ASCII rendering:@.%s@." path
    (Polyprof.flamegraph_ascii ~width:40 t)

(* ------------------------------------------------------------------ *)
(* Section 8: profiling overhead                                        *)
(* ------------------------------------------------------------------ *)

let overhead () =
  section "Section 8: profiling overhead (paper: 3h06' CPU for the suite)";
  let module O = Workloads.Overhead in
  let os = List.map (O.measure ~repeat:1) Workloads.Rodinia.all in
  let total mode =
    List.fold_left
      (fun acc (o : O.t) ->
        acc
        +. (List.find (fun (r : O.row) -> r.O.r_mode = mode) o.O.o_rows)
             .O.r_seconds)
      0. os
  in
  let total_plain = total "native" and total_prof = total "instrumented" in
  Format.printf
    "uninstrumented MiniVM execution of the suite: %.2fs@.\
     instrumentation I+II (CFG recovery + DDG profiling + folding): %.2fs@.\
     slowdown factor: %.1fx@."
    total_plain total_prof
    (total_prof /. max 1e-9 total_plain)

(* ------------------------------------------------------------------ *)
(* Fig. 5a: schedule tree vs calling-context tree                       *)
(* ------------------------------------------------------------------ *)

let fig_5 () =
  section "Fig. 5a: dynamic schedule tree vs calling-context tree";
  Format.printf
    "The CCT encodes calling contexts but no loops; its depth grows with      recursion.@.The dynamic schedule tree folds recursion into loop      dimensions.@.@.";
  let header = [ "benchmark"; "CCT depth"; "CCT nodes"; "stree depth"; "stree nodes" ] in
  let rows =
    List.filter_map
      (fun (w : Workloads.Workload.t) ->
        if w.w_name = "streamcluster" then None
        else begin
          let prog = Vm.Hir.lower w.hir in
          let structure = Cfg.Cfg_builder.run prog in
          let res = Ddg.Depprof.profile prog ~structure in
          Some
            [ w.w_name;
              string_of_int (Ddg.Cct.max_depth res.Ddg.Depprof.cct);
              string_of_int (Ddg.Cct.n_nodes res.Ddg.Depprof.cct);
              string_of_int (Ddg.Sched_tree.depth res.Ddg.Depprof.stree);
              string_of_int (Ddg.Sched_tree.n_nodes res.Ddg.Depprof.stree) ]
        end)
      [ Workloads.Backprop.workload; Workloads.Heartwall.workload;
        Workloads.Cfd.workload; Workloads.Lud.workload ]
  in
  (* and the recursive example, where the contrast is the point *)
  let prog = Vm.Hir.lower Workloads.Figure3.ex2 in
  let structure = Cfg.Cfg_builder.run prog in
  let res = Ddg.Depprof.profile prog ~structure in
  let rows =
    rows
    @ [ [ "fig3-ex2 (recursive)";
          string_of_int (Ddg.Cct.max_depth res.Ddg.Depprof.cct);
          string_of_int (Ddg.Cct.n_nodes res.Ddg.Depprof.cct);
          string_of_int (Ddg.Sched_tree.depth res.Ddg.Depprof.stree);
          string_of_int (Ddg.Sched_tree.n_nodes res.Ddg.Depprof.stree) ] ]
  in
  print_string (Report.Texttable.render ~header rows)

(* ------------------------------------------------------------------ *)
(* Ablations: the folding design choices DESIGN.md calls out           *)
(* ------------------------------------------------------------------ *)

let ablation () =
  section "Ablations: folding design choices";
  let variants =
    [ ("full folding", Ddg.Depprof.default_config);
      ( "no boundary splits",
        { Ddg.Depprof.default_config with boundary_splits = false } );
      ( "all-or-nothing labels",
        { Ddg.Depprof.default_config with per_component_labels = false } );
      ( "no SCEV pruning",
        { Ddg.Depprof.default_config with scev_prune = false } );
      ( "max_pieces = 2",
        { Ddg.Depprof.default_config with max_pieces = 2 } ) ]
  in
  let benches =
    [ Workloads.Backprop.workload; Workloads.Lavamd.workload;
      Workloads.Srad.v2; Workloads.Bfs.workload ]
  in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      Format.printf "@.%s:@." w.w_name;
      let prog = Vm.Hir.lower w.hir in
      let structure = Cfg.Cfg_builder.run prog in
      let header =
        [ "variant"; "%Aff"; "dep rels"; "exact deps"; "TileD"; "%||ops" ]
      in
      let rows =
        List.map
          (fun (name, config) ->
            let res = Ddg.Depprof.profile ~config prog ~structure in
            let analysis = Sched.Depanalysis.analyse prog res in
            let row =
              Sched.Metrics.compute ~name:w.w_name
                ~ld_src:(Workloads.Workload.src_loop_depth w.hir)
                ~fusion_strategy:w.fusion prog res analysis
            in
            let exact_deps =
              List.length
                (List.filter
                   (fun (d : Sched.Depanalysis.dep_ext) -> not d.approx)
                   analysis.Sched.Depanalysis.deps)
            in
            [ name;
              Printf.sprintf "%.0f%%" row.Sched.Metrics.aff_pct;
              string_of_int (List.length res.Ddg.Depprof.deps);
              string_of_int exact_deps;
              Printf.sprintf "%dD" row.Sched.Metrics.tile_depth;
              Printf.sprintf "%.0f%%" row.Sched.Metrics.par_ops_pct ])
          variants
      in
      print_string (Report.Texttable.render ~header rows))
    benches

(* ------------------------------------------------------------------ *)
(* lib/stream: trace codec + domain-sharded profiling                   *)
(* ------------------------------------------------------------------ *)

let json_out = ref false
let record_history = ref false

(* write BENCH_<name>.json only when its content changed modulo
   generated_utc (so reruns diff clean), and append the flattened
   metrics to the perf history when --record was given *)
let emit_bench name doc =
  let path = Printf.sprintf "BENCH_%s.json" name in
  let wrote = Obs.Json_emit.write_file_stable ~pretty:true path doc in
  Format.printf "%s %s@." (if wrote then "wrote" else "unchanged") path;
  if !record_history then begin
    Obs.Perfhist.record ~dir:(Filename.concat "bench" "history") ~bench:name doc;
    Format.printf "recorded %s into bench/history/%s.jsonl@." name name
  end

(* ------------------------------------------------------------------ *)
(* Layer micro-benchmarks (Bechamel): ns and minor words per operation  *)
(* ------------------------------------------------------------------ *)

type layer_row = {
  l_name : string;
  l_per : string;  (* what one operation is: "op", "point", "instr", ... *)
  l_ns : float;
  l_words : float;
}

(* The 10k-point triangle, a 3-D nest with two triangular dimensions,
   and the Table 2 reduction whose first inner iteration reads the
   previous outer iteration's result (the I4 -> I4 dependence holds on
   ck >= 1 only), which folds through a boundary split.  Each is
   (name, dim, label_dim, coords, labels). *)
let layer_fold_inputs () =
  let stream dim label_dim emit =
    let pts = ref [] in
    emit (fun c l -> pts := (c, l) :: !pts);
    let pts = Array.of_list (List.rev !pts) in
    (dim, label_dim, Array.map fst pts, Array.map snd pts)
  in
  [ ( "triangle-10k",
      stream 2 1 (fun emit ->
          for i = 0 to 140 do
            for j = 0 to i do
              emit [| i; j |] [| (17 * i) + j |]
            done
          done) );
    ( "nest-3d",
      stream 3 2 (fun emit ->
          for a = 0 to 24 do
            for b = 0 to a do
              for c = b to 24 do
                emit [| a; b; c |] [| (2 * a) - b + (3 * c); a + c |]
              done
            done
          done) );
    ( "split-reduction",
      stream 2 2 (fun emit ->
          for i = 1 to 100 do
            for k = 0 to 49 do
              emit [| i; k |] (if k = 0 then [| i - 1; 49 |] else [| i; k - 1 |])
            done
          done) ) ]

let layer_row ~name ~per ~per_run fn =
  let est = ols_estimates ~name fn in
  let f = float_of_int per_run in
  { l_name = name; l_per = per; l_ns = est.(0) /. f; l_words = est.(1) /. f }

(* The Instrumentation-II building blocks, each driven the way
   [Ddg.Depprof] drives it per dynamic event: the IIV over gemm's real
   loop-event stream (one [coords] and [context_id] per executed
   instruction), shadow reads and writes, and the statement- and
   dependence-key lookups. *)
let instrumentation_layers () =
  let row = layer_row in
  let prog = Vm.Hir.lower Workloads.Polybench.gemm.Workloads.Workload.hir in
  let structure = Cfg.Cfg_builder.run prog in
  (* [Some ev] per loop event, [None] per executed instruction *)
  let stream =
    let levents = Ddg.Loop_events.create structure ~main:prog.Vm.Prog.main in
    let out = ref [] in
    let push evs = List.iter (fun ev -> out := Some ev :: !out) evs in
    push (Ddg.Loop_events.start levents);
    let callbacks =
      { Vm.Interp.on_control = (fun ev -> push (Ddg.Loop_events.feed levents ev));
        on_exec = (fun _ -> out := None :: !out) }
    in
    let stats = Vm.Interp.run ~callbacks prog in
    push (Ddg.Loop_events.finish levents);
    (Array.of_list (List.rev !out), stats.Vm.Interp.dyn_instrs)
  in
  let iiv_row =
    let events, instrs = stream in
    Ddg.Iiv.reset_intern_table ();
    row ~name:"iiv.update+coords/gemm" ~per:"instr" ~per_run:instrs (fun () ->
        let iiv = Ddg.Iiv.create () in
        Array.iter
          (function
            | Some ev -> Ddg.Iiv.update iiv ev
            | None ->
                ignore (Sys.opaque_identity (Ddg.Iiv.coords iiv));
                ignore (Sys.opaque_identity (Ddg.Iiv.context_id iiv)))
          events)
  in
  let n = 1000 in
  let coords = [| 1; 2; 3 |] in
  let reg_row =
    let s = Ddg.Shadow.create () in
    row ~name:"shadow.reg/read+write" ~per:"op" ~per_run:n (fun () ->
        for k = 0 to n - 1 do
          let reg = k land 15 in
          if Ddg.Shadow.reg_writer s ~reg >= 0 then
            ignore (Sys.opaque_identity (Ddg.Shadow.reg_writer_coords s ~reg));
          Ddg.Shadow.set_reg s ~reg ~id:k coords
        done)
  in
  let mem_row =
    let s = Ddg.Shadow.create () in
    row ~name:"shadow.mem/read+write" ~per:"op" ~per_run:n (fun () ->
        for k = 0 to n - 1 do
          let addr = (k * 37) land 65535 in
          if Ddg.Shadow.mem_writer s ~addr >= 0 then
            ignore (Sys.opaque_identity (Ddg.Shadow.mem_writer_coords s ~addr));
          Ddg.Shadow.set_mem s ~addr ~id:k coords
        done)
  in
  (* 64 statements over 4 contexts and 128 dependences among them, the
     order of gemm's tables *)
  let stmt_row =
    let tbl = Pp_util.Int_table.create 512 in
    for k = 0 to 63 do
      Pp_util.Int_table.add tbl
        (Ddg.Depprof.stmt_code ~ctx:(k land 3) ~sid:(1000 + k))
        k
    done;
    row ~name:"stmt-key.lookup" ~per:"op" ~per_run:n (fun () ->
        for k = 0 to n - 1 do
          let k = k land 63 in
          ignore
            (Sys.opaque_identity
               (Pp_util.Int_table.find tbl
                  (Ddg.Depprof.stmt_code ~ctx:(k land 3) ~sid:(1000 + k))))
        done)
  in
  let dep_row =
    let key k =
      Ddg.Depprof.dep_code ~src:(k land 63) ~dst:((k * 7) land 63)
        (if k land 1 = 0 then Ddg.Depprof.Reg_dep else Ddg.Depprof.Mem_dep)
    in
    let tbl = Pp_util.Int_table.create 512 in
    for k = 0 to 127 do
      Pp_util.Int_table.add tbl (key k) k
    done;
    row ~name:"dep-key.lookup" ~per:"op" ~per_run:n (fun () ->
        for k = 0 to n - 1 do
          ignore (Sys.opaque_identity (Pp_util.Int_table.find tbl (key (k land 127))))
        done)
  in
  [ iiv_row; reg_row; mem_row; stmt_row; dep_row ]

let layers () =
  section "Layer micro-benchmarks: ns and minor words per operation";
  let row = layer_row in
  let module R = Pp_util.Rat in
  let module A = Minisl.Affine in
  let q1 = Sys.opaque_identity (R.make 3 4)
  and q2 = Sys.opaque_identity (R.make 5 6) in
  let f3 = A.of_int_coeffs [| 3; -2; 7 |] 11 and x3 = [| 4; 9; -5 |] in
  let arith =
    [ row ~name:"rat.add" ~per:"op" ~per_run:1 (fun () -> R.add q1 q2);
      row ~name:"rat.mul" ~per:"op" ~per_run:1 (fun () -> R.mul q1 q2);
      row ~name:"affine.eval" ~per:"op" ~per_run:1 (fun () -> A.eval f3 x3) ]
  in
  let fold =
    List.concat_map
      (fun (input, (dim, label_dim, coords, labels)) ->
        let n = Array.length coords in
        let fill () =
          let c = Fold.Collector.create ~dim ~label_dim () in
          Array.iteri (fun k p -> Fold.Collector.add c p labels.(k)) coords;
          c
        in
        let add = row ~name:("collector.add/" ^ input) ~per:"point" ~per_run:n fill in
        let whole =
          row ~name:"fold" ~per:"point" ~per_run:n (fun () ->
              Fold.Collector.result (fill ()))
        in
        (* result on its own: the whole fold less the buffering *)
        [ add;
          { whole with
            l_name = "collector.result/" ^ input;
            l_ns = whole.l_ns -. add.l_ns;
            l_words = whole.l_words -. add.l_words } ])
      (layer_fold_inputs ())
  in
  let backprop = Vm.Hir.lower Workloads.Backprop.workload.Workloads.Workload.hir in
  let structure = Cfg.Cfg_builder.run backprop in
  let instrs = (Vm.Interp.run backprop).Vm.Interp.dyn_instrs in
  let pipeline =
    [ row ~name:"interp/backprop" ~per:"instr" ~per_run:instrs (fun () ->
          Vm.Interp.run backprop);
      row ~name:"instrumentation-I/backprop" ~per:"instr" ~per_run:instrs
        (fun () -> Cfg.Cfg_builder.run backprop);
      row ~name:"instrumentation-II+fold/backprop" ~per:"instr"
        ~per_run:instrs (fun () -> Ddg.Depprof.profile backprop ~structure) ]
  in
  (* exact bounds on a 3-D triangle-ish polyhedron *)
  let p3 =
    Minisl.Polyhedron.make 3
      [ Minisl.Constr.make Ge [| 1; 0; 0 |] 0;
        Minisl.Constr.make Ge [| -1; 0; 0 |] 50;
        Minisl.Constr.make Ge [| 1; -1; 0 |] 0;
        Minisl.Constr.make Ge [| 0; 1; 0 |] 0;
        Minisl.Constr.make Ge [| 0; 1; -1 |] 0;
        Minisl.Constr.make Ge [| 0; 0; 1 |] 0 ]
  in
  let obj = A.of_int_coeffs [| 1; -2; 3 |] 0 in
  let bounds =
    [ row ~name:"bounds-3d" ~per:"op" ~per_run:1 (fun () ->
          Minisl.Polyhedron.bounds p3 obj) ]
  in
  let rows = arith @ fold @ pipeline @ instrumentation_layers () @ bounds in
  print_string
    (Report.Texttable.render
       ~header:[ "layer"; "per"; "ns/op"; "minor words/op" ]
       (List.map
          (fun r ->
            [ r.l_name; r.l_per; Printf.sprintf "%.1f" r.l_ns;
              Printf.sprintf "%.1f" r.l_words ])
          rows));
  if !json_out then begin
    let open Obs.Json_emit in
    emit_bench "layers"
      (Obj
         (schema_header ~schema_version:Obs.Schemas.layers
         @ [ ( "rows",
               List
                 (List.map
                    (fun r ->
                      Obj
                        [ ("name", Str r.l_name);
                          ("per", Str r.l_per);
                          ("ns", Float r.l_ns);
                          ("minor_words", Float r.l_words) ])
                    rows) ) ]))
  end

let stream_bench () =
  let domains = 4 in
  section
    (Printf.sprintf
       "lib/stream: binary trace codec + %d-domain sharded profiling" domains);
  let module D = Workloads.Stream_driver in
  let rows = List.map (D.run ~domains) Workloads.Registry.suite in
  print_string (D.table rows);
  let totals f = List.fold_left (fun a r -> a + f r) 0 rows in
  let cores = Domain.recommended_domain_count () in
  Format.printf
    "@.suite: %d events, %d KB on disk vs %d KB marshalled (%.1fx), all \
     results identical: %b@."
    (totals (fun r -> r.D.events))
    (totals (fun r -> r.D.disk_bytes) / 1024)
    (totals (fun r -> r.D.marshal_bytes) / 1024)
    (float_of_int (totals (fun r -> r.D.marshal_bytes))
    /. float_of_int (max 1 (totals (fun r -> r.D.disk_bytes))))
    (List.for_all D.sound rows);
  if cores < domains then
    Format.printf
      "note: host has %d hardware thread(s) < %d domains -- the parallel \
       runs are time-sliced, so wall-clock speedup is not meaningful on \
       this machine (each domain decodes the full stream; expect ~1/%d \
       \"speedup\" here and real gains only with >= %d cores).@."
      cores domains domains domains;
  if !json_out then begin
    let open Obs.Json_emit in
    emit_bench "stream"
      (Obj
         (schema_header ~schema_version:Obs.Schemas.stream
         @ [ ("domains", Int domains);
             ("time_sliced", Bool (cores < domains));
             ("chunk_bytes", Int Stream.Sink.default_chunk_bytes);
             ("workloads", List (List.map D.to_json rows)) ]))
  end

(* ------------------------------------------------------------------ *)
(* lib/analysis: static dependence engine + instrumentation pruning     *)
(* ------------------------------------------------------------------ *)

let staticdep_bench () =
  section
    "lib/analysis: static polyhedral dependences + instrumentation pruning";
  let module D = Workloads.Staticdep_driver in
  (* the driver's record plus the trace bytes with and without the
     pruned accesses' addresses: the codec cost of the plan *)
  let rows =
    List.map
      (fun w ->
        let r = D.run ~prune:true w in
        let sd = r.D.sd in
        let prog = sd.Analysis.Statdep.prog in
        let path = Filename.temp_file "polyprof" ".trace" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        @@ fun () ->
        let bytes ?elide () =
          (Stream.Trace_file.record_to_file ?elide prog path)
            .Stream.Trace_file.wi_bytes
        in
        let full = bytes () in
        let elided = bytes ~elide:(Hashtbl.mem sd.Analysis.Statdep.pruned) () in
        (r, Option.get r.D.prune, full, elided))
      Workloads.Registry.suite
  in
  print_string (D.table (List.map (fun (r, _, _, _) -> r) rows));
  let tot f = List.fold_left (fun a (_, p, _, _) -> a + f p) 0 rows in
  let dyn_pruned = tot (fun p -> p.D.pruned_dyn) in
  let dyn_mem = tot (fun p -> p.D.dyn_mem_ops) in
  let suite_pct =
    100. *. float_of_int dyn_pruned /. float_of_int (max 1 dyn_mem)
  in
  let all_equal = List.for_all (fun (r, _, _, _) -> D.sound r) rows in
  let majority =
    List.length (List.filter (fun (_, p, _, _) -> D.pruned_pct p > 50.) rows)
  in
  Format.printf
    "@.suite: %d/%d dynamic accesses pruned (%.0f%%), %d workloads above \
     50%%, all pruned profiles identical to unpruned: %b@."
    dyn_pruned dyn_mem suite_pct majority all_equal;
  if not all_equal then failwith "staticdep: pruned profile diverged";
  if !json_out then begin
    let open Obs.Json_emit in
    let row ((r : D.t), (p : D.prune), trace_full, trace_elided) =
      let sd = r.D.sd in
      Obj
        [ ("name", Str r.D.name);
          ("static_accesses", Int sd.Analysis.Statdep.n_accesses);
          ("resolved", Int (Analysis.Statdep.n_resolved sd));
          ("dyn_mem_ops", Int p.D.dyn_mem_ops);
          ("dyn_pruned", Int p.D.pruned_dyn);
          ("pruned_pct", Float (D.pruned_pct p));
          ("pair_summaries", Int (List.length sd.Analysis.Statdep.pairs));
          ("full_seconds", Float p.D.full_s);
          ("pruned_seconds", Float p.D.pruned_s);
          ("trace_bytes", Int trace_full);
          ("elided_trace_bytes", Int trace_elided);
          ("speculative_witnesses", Int p.D.witnesses);
          ("witness_reruns", Int p.D.reruns);
          ("identical", Bool p.D.equal) ]
    in
    emit_bench "staticdep"
      (Obj
         (schema_header ~schema_version:Obs.Schemas.staticdep
         @ [ ("suite_pruned_pct", Float suite_pct);
             ("workloads_above_50pct", Int majority);
             ("all_identical", Bool all_equal);
             ("workloads", List (List.map row rows)) ]))
  end

(* ------------------------------------------------------------------ *)
(* lib/obs: self-profiling telemetry over the whole workload suite      *)
(* ------------------------------------------------------------------ *)

let obs_bench () =
  section "lib/obs: self-profiling telemetry (spans + metrics)";
  let ws =
    [ Workloads.Backprop.workload; Workloads.Gems_fdtd.workload ]
    @ Workloads.Polybench.all
  in
  Obs.Registry.enable ();
  Obs.Metrics.reset ();
  Obs.Span.reset ();
  List.iter
    (fun (w : Workloads.Workload.t) ->
      ignore (Workloads.Runner.run w))
    ws;
  let roots = Obs.Span.roots () in
  let metrics = Obs.Metrics.snapshot () in
  Obs.Registry.disable ();
  print_string (Report.Obs_report.summary ~metrics roots);
  if !json_out then begin
    let open Obs.Json_emit in
    let rec span_json (s : Obs.Span.t) =
      Obj
        [ ("name", Str s.Obs.Span.sp_name);
          ("cat", Str s.Obs.Span.sp_cat);
          ("dom", Int s.Obs.Span.sp_tid);
          ("dur_ns", Int s.Obs.Span.sp_dur_ns);
          ("minor_words", Float s.Obs.Span.sp_minor_words);
          ("major_words", Float s.Obs.Span.sp_major_words);
          ("top_heap_words", Int s.Obs.Span.sp_top_heap_words);
          ("children", List (List.map span_json s.Obs.Span.sp_children)) ]
    in
    let metric_json ((d : Obs.Metrics.desc), v) =
      let value =
        match v with
        | Obs.Metrics.Vint i -> [ ("value", Int i) ]
        | Obs.Metrics.Vhist h ->
            [ ("count", Int h.Obs.Metrics.h_count);
              ("sum", Int h.Obs.Metrics.h_sum);
              ("min", Int h.Obs.Metrics.h_min);
              ("max", Int h.Obs.Metrics.h_max) ]
      in
      Obj
        (( "name", Str d.Obs.Metrics.d_name )
        :: ( "kind",
             Str
               (match d.Obs.Metrics.d_kind with
               | Obs.Metrics.Counter -> "counter"
               | Obs.Metrics.Gauge -> "gauge"
               | Obs.Metrics.Histogram -> "histogram") )
        :: value)
    in
    let doc =
      Obj
        (schema_header ~schema_version:Obs.Schemas.obs
        @ [ ("workloads", List (List.map (fun (w : Workloads.Workload.t) ->
                 Str w.Workloads.Workload.w_name) ws));
            ("spans", List (List.map span_json roots));
            ("metrics", List (List.map metric_json metrics)) ])
    in
    emit_bench "obs" doc
  end

(* ------------------------------------------------------------------ *)
(* lib/tune: autotuning beam search over the suite                      *)
(* ------------------------------------------------------------------ *)

let autotune_bench () =
  section "lib/tune: verified beam search over the schedule space";
  let config = Tune.Search.default in
  let results = Workloads.Runner.autotune_all ~config () in
  print_string (Workloads.Runner.autotune_table results);
  let improved = Tune.Tune_report.improved results in
  Format.printf
    "@.%d of %d workloads got a verified non-identity schedule beating \
     identity by >= %.0f%%@."
    improved (List.length results)
    ((config.Tune.Search.margin -. 1.0) *. 100.);
  if !json_out then begin
    emit_bench "autotune" (Tune.Tune_report.suite_json ~config results)
  end

(* ------------------------------------------------------------------ *)
(* lib/serve: profiling-as-a-service engine                             *)
(* ------------------------------------------------------------------ *)

let serve_bench () =
  section "lib/serve: job engine, content-addressed cache, backpressure";
  let module P = Serve.Proto in
  let module E = Serve.Engine in
  let now () = Obs.Clock.monotonic () in
  (* --- cold vs cached latency on the real executor ----------------- *)
  let engine =
    E.create ~exec:Serve.Jobs.execute { E.default_config with E.workers = 2 }
  in
  let benches = [ "gemm"; "atax"; "mvt"; "bicg"; "gesummv" ] in
  let submit_timed bench =
    let spec = P.spec ~kind:P.Profile ~bench () in
    let key =
      match Serve.Jobs.job_key spec with
      | Ok k -> k
      | Error e -> failwith e
    in
    let t0 = now () in
    match E.submit engine ~key spec with
    | E.Hit _ -> (now () -. t0, true)
    | E.Enqueued j | E.Joined j -> (
        match E.await engine j.E.j_id ~timeout_s:300.0 () with
        | Some { E.j_state = P.Done; _ } -> (now () -. t0, false)
        | _ -> failwith (bench ^ ": job did not finish"))
    | E.Overloaded | E.Closed -> failwith "unexpected submit outcome"
  in
  let rows =
    List.map
      (fun b ->
        let cold_s, h1 = submit_timed b in
        let hit_s, h2 = submit_timed b in
        assert ((not h1) && h2);
        (b, cold_s, hit_s))
      benches
  in
  Format.printf "%-10s %12s %12s %10s@." "benchmark" "cold (ms)" "cached (us)"
    "speedup";
  List.iter
    (fun (b, cold, hit) ->
      Format.printf "%-10s %12.2f %12.1f %10.0fx@." b (cold *. 1e3) (hit *. 1e6)
        (cold /. (hit +. 1e-9)))
    rows;
  (* --- sustained cached throughput --------------------------------- *)
  let sustained =
    let m = 2000 in
    let t0 = now () in
    for i = 0 to m - 1 do
      ignore (submit_timed (List.nth benches (i mod List.length benches)))
    done;
    float_of_int m /. (now () -. t0)
  in
  Format.printf "@.sustained cached throughput: %.0f jobs/s@." sustained;
  let dedup_executions = (E.stats engine).E.s_executions in
  E.shutdown engine;
  (* --- dedup + backpressure under overload (slow injected executor) - *)
  let ran = Atomic.make 0 in
  let slow _spec =
    Atomic.incr ran;
    Unix.sleepf 0.05;
    { E.x_report = "{}"; x_span = None }
  in
  let engine2 =
    E.create ~exec:slow
      { E.default_config with E.workers = 1; queue_capacity = 4 }
  in
  let offered = 32 in
  let accepted = ref 0 and overloaded = ref 0 in
  for i = 0 to offered - 1 do
    let spec = P.spec ~kind:P.Profile ~bench:(Printf.sprintf "b%d" i) () in
    let key = Polyprof.Prog_hash.sha256_hex (string_of_int i) in
    match E.submit engine2 ~key spec with
    | E.Enqueued _ | E.Joined _ | E.Hit _ -> incr accepted
    | E.Overloaded -> incr overloaded
    | E.Closed -> ()
  done;
  E.shutdown engine2;
  Format.printf
    "backpressure: offered %d jobs to a 1-worker/4-deep engine -> %d \
     accepted, %d rejected (429), %d executed@."
    offered !accepted !overloaded (Atomic.get ran);
  if !json_out then begin
    let open Obs.Json_emit in
    let doc =
      Obj
        (schema_header ~schema_version:Obs.Schemas.serve
        @ [ ("workers", Int 2);
            ( "workloads",
              List
                (List.map
                   (fun (b, cold, hit) ->
                     Obj
                       [ ("name", Str b);
                         ("cold_seconds", Float cold);
                         ("cached_seconds", Float hit);
                         ("speedup", Float (cold /. (hit +. 1e-9))) ])
                   rows) );
            ("sustained_cached_jobs_per_s", Float sustained);
            ("executions", Int dedup_executions);
            ( "backpressure",
              Obj
                [ ("offered", Int offered);
                  ("queue_capacity", Int 4);
                  ("accepted", Int !accepted);
                  ("overloaded", Int !overloaded);
                  ("executed", Int (Atomic.get ran)) ] ) ])
    in
    emit_bench "serve" doc
  end

(* ------------------------------------------------------------------ *)
(* lib/analysis: parallelism certifier + dynamic race sanitizer         *)
(* ------------------------------------------------------------------ *)

let parcheck_bench () =
  section "lib/analysis: parallelism certifier + dynamic race sanitizer";
  let module D = Workloads.Parcheck_driver in
  let rows = List.map (fun w -> D.run w) Workloads.Registry.all in
  print_string (D.table rows);
  let san (r : D.t) = Option.get r.D.san in
  let dims (r : D.t) = List.length r.D.pc.Analysis.Parcheck.pc_dims in
  let cert (r : D.t) = Analysis.Parcheck.n_certified r.D.pc in
  let race (r : D.t) = Analysis.Parcheck.n_races r.D.pc in
  let unknown r = dims r - cert r - race r in
  let san_races r = Ddg.Race_san.races_on_certified (san r) in
  let tot f = List.fold_left (fun a r -> a + f r) 0 rows in
  let all_sound = List.for_all (fun r -> san_races r = 0 && D.sound r) rows in
  Format.printf
    "@.suite: %d claimed dims, %d certified, %d racy, %d unknown; sanitizer \
     races on certified dims: %d (soundness requires 0)@."
    (tot dims) (tot cert) (tot race) (tot unknown) (tot san_races);
  if not all_sound then
    failwith "parcheck: sanitizer observed a race on a certified dimension";
  if !json_out then begin
    let open Obs.Json_emit in
    let row (r : D.t) =
      Obj
        [ ("name", Str r.D.name);
          ("dims", Int (dims r));
          ("certified", Int (cert r));
          ("racy", Int (race r));
          ("unknown", Int (unknown r));
          ("sanitizer_accesses", Int (san r).Ddg.Race_san.sr_accesses);
          ("sanitizer_races_on_certified", Int (san_races r));
          ("crosscheck_ok", Bool (D.sound r));
          ("static_seconds", Float r.D.static_s);
          ("sanitizer_seconds", Float r.D.san_s) ]
    in
    emit_bench "parcheck"
      (Obj
         (schema_header ~schema_version:Obs.Schemas.parcheck
         @ [ ("dims", Int (tot dims));
             ("certified", Int (tot cert));
             ("racy", Int (tot race));
             ("unknown", Int (tot unknown));
             ("sanitizer_races_on_certified", Int (tot san_races));
             ("all_sound", Bool all_sound);
             ("workloads", List (List.map row rows)) ]))
  end

let () =
  let sections =
    [ ("table1-2", tables_1_and_2); ("table3", table_3); ("table4", table_4);
      ("table5", table_5); ("casestudy-verify", casestudy_verify);
      ("fig5", fig_5); ("fig7", fig_7);
      ("ablation", ablation); ("layers", layers); ("overhead", overhead);
      ("stream", stream_bench); ("staticdep", staticdep_bench);
      ("obs", obs_bench); ("autotune", autotune_bench);
      ("parcheck", parcheck_bench); ("serve", serve_bench) ]
  in
  let argv = Array.to_list Sys.argv in
  json_out := List.mem "--json" argv;
  record_history := List.mem "--record" argv;
  let requested =
    match List.filter (fun a -> a <> "--json" && a <> "--record") argv with
    | _ :: (_ :: _ as rest) -> rest
    | _ -> []
  in
  List.iter
    (fun (name, fn) ->
      if requested = [] || List.mem name requested then fn ())
    sections
