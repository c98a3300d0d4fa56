(* Tests for Instrumentation II: shadow memory/registers, statement
   folding, SCEV recognition and pruning, dependence folding. *)

open Vm.Hir.Dsl
module H = Vm.Hir
module P = Minisl.Polyhedron
module A = Minisl.Affine
module Rat = Pp_util.Rat

let profile hir =
  let prog = H.lower hir in
  let structure = Cfg.Cfg_builder.run prog in
  (prog, Ddg.Depprof.profile prog ~structure)

let test_shadow_memory () =
  let s = Ddg.Shadow.create () in
  Alcotest.(check bool) "unknown addr" true (Ddg.Shadow.last_mem_writer s ~addr:5 = None);
  let o1 = { Ddg.Shadow.o_sid = 1; o_ctx = 0; o_coords = [| 3 |] } in
  Ddg.Shadow.write_mem s ~addr:5 o1;
  (match Ddg.Shadow.last_mem_writer s ~addr:5 with
  | Some o -> Alcotest.(check int) "writer sid" 1 o.Ddg.Shadow.o_sid
  | None -> Alcotest.fail "missing");
  let o2 = { o1 with Ddg.Shadow.o_sid = 2 } in
  Ddg.Shadow.write_mem s ~addr:5 o2;
  (match Ddg.Shadow.last_mem_writer s ~addr:5 with
  | Some o -> Alcotest.(check int) "last writer wins" 2 o.Ddg.Shadow.o_sid
  | None -> Alcotest.fail "missing");
  Alcotest.(check int) "one shadowed word" 1 (Ddg.Shadow.n_shadowed_words s)

let test_shadow_register_frames () =
  let s = Ddg.Shadow.create () in
  let o = { Ddg.Shadow.o_sid = 7; o_ctx = 0; o_coords = [||] } in
  Ddg.Shadow.write_reg s ~reg:3 o;
  Ddg.Shadow.push_frame s;
  Alcotest.(check bool) "callee frame is clean" true
    (Ddg.Shadow.last_reg_writer s ~reg:3 = None);
  Ddg.Shadow.write_reg s ~reg:3 { o with Ddg.Shadow.o_sid = 8 };
  Ddg.Shadow.pop_frame s;
  (match Ddg.Shadow.last_reg_writer s ~reg:3 with
  | Some o -> Alcotest.(check int) "caller frame restored" 7 o.Ddg.Shadow.o_sid
  | None -> Alcotest.fail "lost");
  Alcotest.check_raises "unbalanced pop" (Invalid_argument "Shadow.pop_frame: unbalanced")
    (fun () -> Ddg.Shadow.pop_frame s)

(* a producer loop feeding a consumer loop: one clean affine dep *)
let producer_consumer : H.program =
  { H.funs =
      [ H.fundef "main" []
          [ H.for_ "p" (i 0) (i 20) [ store "a" (v "p") (Itof (v "p") *? f 1.5) ];
            H.Let ("acc", f 0.0);
            H.for_ "c" (i 0) (i 20) [ H.Let ("acc", v "acc" +? "a".%[v "c"]) ] ] ];
    arrays = [ ("a", 20) ];
    main = "main" }

let test_mem_dep_folded () =
  let _, res = profile producer_consumer in
  let mem_deps =
    List.filter
      (fun (d : Ddg.Depprof.dep_info) -> d.dk.kind = Ddg.Depprof.Mem_dep)
      res.deps
  in
  Alcotest.(check int) "exactly one memory dep survives" 1
    (List.length mem_deps);
  let d = List.hd mem_deps in
  Alcotest.(check int) "20 dynamic edges" 20 d.d_count;
  (match d.d_pieces with
  | [ p ] ->
      Alcotest.(check bool) "exact" true p.Fold.exact;
      (match p.Fold.labels.(0) with
      | Some f ->
          (* producer iteration = consumer iteration *)
          Alcotest.(check bool) "identity map" true
            (Rat.equal f.A.coeffs.(0) Rat.one && Rat.is_zero f.A.const)
      | None -> Alcotest.fail "label lost")
  | _ -> Alcotest.fail "expected one piece");
  match Ddg.Depprof.dep_map d with
  | Some m -> (
      match Minisl.Pmap.apply_int m [| 7 |] with
      | Some img -> Alcotest.(check (array int)) "apply" [| 7 |] img
      | None -> Alcotest.fail "apply failed")
  | None -> Alcotest.fail "dep_map failed"

let test_scev_pruning () =
  let _, res = profile producer_consumer in
  Alcotest.(check bool) "pruned something" true (res.pruned_dep_edges > 0);
  let scevs = List.filter (fun (s : Ddg.Depprof.stmt_info) -> s.is_scev) res.stmts in
  Alcotest.(check bool) "found SCEV statements" true (List.length scevs >= 2);
  List.iter
    (fun (d : Ddg.Depprof.dep_info) ->
      List.iter
        (fun (s : Ddg.Depprof.stmt_info) ->
          if s.is_scev then begin
            Alcotest.(check bool) "scev not a producer" false
              (d.dk.src_sid = s.sk.s_sid && d.dk.src_ctx = s.sk.s_ctx);
            Alcotest.(check bool) "scev not a consumer" false
              (d.dk.dst_sid = s.sk.s_sid && d.dk.dst_ctx = s.sk.s_ctx)
          end)
        res.stmts)
    res.deps

let test_stmt_domains_exact () =
  let _, res = profile producer_consumer in
  List.iter
    (fun (s : Ddg.Depprof.stmt_info) ->
      if s.depth = 1 then begin
        Alcotest.(check bool) "loop statements fold exactly" true s.affine_exact;
        let pts =
          List.fold_left (fun acc (p : Fold.piece) -> acc + p.Fold.points) 0
            s.s_pieces
        in
        (* body statements run 20 times; the header compare runs 21 *)
        Alcotest.(check bool) "20 or 21 points" true (pts = 20 || pts = 21)
      end)
    res.stmts

let test_counts_match_interpreter () =
  let _, res = profile producer_consumer in
  let total =
    List.fold_left
      (fun acc (s : Ddg.Depprof.stmt_info) -> acc + s.s_count)
      0 res.stmts
  in
  Alcotest.(check int) "per-stmt counts sum to dyn instrs"
    res.run_stats.Vm.Interp.dyn_instrs total

let test_reduction_dep_distance_one () =
  let _, res = profile producer_consumer in
  let carried =
    List.filter
      (fun (d : Ddg.Depprof.dep_info) ->
        d.dk.kind = Ddg.Depprof.Reg_dep
        && d.src_depth = 1 && d.dst_depth = 1
        && List.exists
             (fun (p : Fold.piece) ->
               match p.Fold.labels.(0) with
               | Some f -> Rat.equal f.A.const (Rat.of_int (-1))
               | None -> false)
             d.d_pieces)
      res.deps
  in
  Alcotest.(check bool) "found the carried reduction dep" true (carried <> [])

(* soundness: folded memory dependences map consumer points into the
   producer's folded domain *)
let test_dep_soundness_on_workload () =
  let _, res = profile Workloads.Backprop.hir in
  let stmt_of sid ctx =
    List.find_opt
      (fun (s : Ddg.Depprof.stmt_info) -> s.sk.s_sid = sid && s.sk.s_ctx = ctx)
      res.stmts
  in
  List.iter
    (fun (d : Ddg.Depprof.dep_info) ->
      match (Ddg.Depprof.dep_map d, stmt_of d.dk.src_sid d.dk.src_ctx) with
      | Some m, Some src_stmt ->
          let src_dom = Ddg.Depprof.stmt_domain src_stmt in
          List.iter
            (fun (piece : Minisl.Pmap.piece) ->
              if Minisl.Polyhedron.dim piece.Minisl.Pmap.dom <= 4 then
                match P.sample piece.Minisl.Pmap.dom with
                | Some pt -> (
                    match Minisl.Pmap.apply_int m pt with
                    | Some img ->
                        Alcotest.(check bool)
                          "producer image lies in its domain" true
                          (Minisl.Pset.mem src_dom img)
                    | None -> ())
                | None -> ())
            (Minisl.Pmap.pieces m)
      | _ -> ())
    res.deps

let test_fig3_ex1_folded_domains () =
  (* the interprocedural 2-D nest of Fig. 3 Ex. 1: the statement in the
     inner (callee) loop folds into a full 3x3 rectangle spanning both
     the caller's and the callee's dimensions *)
  let _, res = profile Workloads.Figure3.ex1 in
  let two_d =
    List.filter (fun (s : Ddg.Depprof.stmt_info) -> s.depth = 2) res.stmts
  in
  Alcotest.(check bool) "2-D statements found" true (two_d <> []);
  List.iter
    (fun (s : Ddg.Depprof.stmt_info) ->
      Alcotest.(check bool) "exact" true s.affine_exact;
      match s.s_pieces with
      | [ p ] ->
          (* body statements run 3x3 = 9 times; the inner header's
             bound/compare instructions run 3x4 = 12 *)
          Alcotest.(check bool) "3x3 or 3x4 points" true
            (p.Fold.points = 9 || p.Fold.points = 12);
          Alcotest.(check bool) "rectangle" true
            (P.mem p.Fold.dom [| 0; 0 |] && P.mem p.Fold.dom [| 2; 2 |]
            && not (P.mem p.Fold.dom [| 3; 0 |]))
      | _ -> Alcotest.fail "expected one piece")
    two_d

let test_waw_tracking_optional () =
  let cfg = { Ddg.Depprof.default_config with track_waw = true } in
  let prog = H.lower producer_consumer in
  let structure = Cfg.Cfg_builder.run prog in
  let res = Ddg.Depprof.profile ~config:cfg prog ~structure in
  Alcotest.(check bool) "profiling with WAW works" true (List.length res.stmts > 0)

(* Golden digests of the folded profile: every statement and dependence
   key with its count and its pieces as printed by [Fold.pp_piece].  They
   pin the fold's output bit for bit, so a change to the folding code
   that alters any piece, label or count shows up here. *)
let golden_digests =
  [ ("gemm",
      "123e33d4e9fc204a8178b121a51ff7349ea8157fb3b47f05b59953867a98e593");
    ("lu",
      "e4595ea111708fb3a326375cd7ccb0fba4bbf30f02ce9e6c9557895ff9978ff3");
    ("backprop",
      "cf6177b9987e04def56239c983c9722acf04ea98e5c929c2ef4d9f537c8426c9");
    ("bfs",
      "ea57db7c59cfe9a5ce6d20c35eda8418f78ca5b752aa14034c0bfb0c015829f2");
    ("lavaMD",
      "3cfdd57b70ee75948adfe85d037668826fde1cc1b1a2c5bd108326a601cea916") ]

let fold_dump (res : Ddg.Depprof.result) =
  let b = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer b in
  let pieces ps =
    List.iter (Format.fprintf fmt "  %a@\n" (Fold.pp_piece ?names:None ?label_names:None)) ps
  in
  List.iter
    (fun (s : Ddg.Depprof.stmt_info) ->
      Format.fprintf fmt "stmt %d %a n=%d@\n" s.sk.s_ctx Vm.Isa.Sid.pp s.sk.s_sid
        s.s_count;
      pieces s.s_pieces)
    res.stmts;
  List.iter
    (fun (d : Ddg.Depprof.dep_info) ->
      Format.fprintf fmt "dep %d:%a -> %d:%a n=%d@\n" d.dk.src_ctx Vm.Isa.Sid.pp
        d.dk.src_sid d.dk.dst_ctx Vm.Isa.Sid.pp d.dk.dst_sid d.d_count;
      pieces d.d_pieces)
    res.deps;
  Format.pp_print_flush fmt ();
  Buffer.contents b

let test_fold_golden () =
  List.iter
    (fun (name, expected) ->
      match Workloads.Registry.find name with
      | Error e -> Alcotest.fail e
      | Ok w ->
          let _, res = profile w.Workloads.Workload.hir in
          let got = Polyprof.Prog_hash.sha256_hex (fold_dump res) in
          Alcotest.(check string) (name ^ " fold digest") expected got)
    golden_digests

(* Allocation guard for Instrumentation II: the whole profile of gemm,
   event loop and finalize, stays within 140 minor words per dynamic
   instruction (the engine that built key records, closures and a fresh
   iteration vector per event took 204). *)
let test_gemm_minor_words () =
  let prog = H.lower Workloads.Polybench.gemm.Workloads.Workload.hir in
  let structure = Cfg.Cfg_builder.run prog in
  let w0 = Gc.minor_words () in
  let res = Ddg.Depprof.profile prog ~structure in
  let words = Gc.minor_words () -. w0 in
  let per_instr =
    words /. float_of_int res.Ddg.Depprof.run_stats.Vm.Interp.dyn_instrs
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per instruction <= 140" per_instr)
    true (per_instr <= 140.)

let () =
  Alcotest.run "depprof"
    [ ( "shadow",
        [ Alcotest.test_case "memory" `Quick test_shadow_memory;
          Alcotest.test_case "register frames" `Quick test_shadow_register_frames
        ] );
      ( "dependences",
        [ Alcotest.test_case "memory dep folded" `Quick test_mem_dep_folded;
          Alcotest.test_case "SCEV pruning" `Quick test_scev_pruning;
          Alcotest.test_case "reduction distance" `Quick
            test_reduction_dep_distance_one;
          Alcotest.test_case "soundness on backprop" `Slow
            test_dep_soundness_on_workload;
          Alcotest.test_case "WAW option" `Quick test_waw_tracking_optional;
          Alcotest.test_case "Fig. 3 Ex. 1 folded domains" `Quick
            test_fig3_ex1_folded_domains ] );
      ( "statements",
        [ Alcotest.test_case "domains exact" `Quick test_stmt_domains_exact;
          Alcotest.test_case "counts match interpreter" `Quick
            test_counts_match_interpreter ] );
      ( "golden",
        [ Alcotest.test_case "fold digests (gemm lu backprop bfs lavaMD)"
            `Quick test_fold_golden;
          Alcotest.test_case "gemm allocates <= 140 minor words per instruction"
            `Quick test_gemm_minor_words ] ) ]
