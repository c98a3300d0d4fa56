(* Tests for the suite runner: budget bail-out, table rendering,
   workload registry. *)

module R = Workloads.Runner

let test_registry () =
  Alcotest.(check int) "19 benchmarks" 19 (List.length Workloads.Rodinia.all);
  Alcotest.(check bool) "find works" true
    ((Workloads.Rodinia.find "backprop").w_name = "backprop");
  Alcotest.(check bool) "unknown rejected" true
    (try
       ignore (Workloads.Rodinia.find "nonesuch");
       false
     with Invalid_argument _ -> true);
  (* Table 5 row order *)
  Alcotest.(check (list string)) "paper row order"
    [ "backprop"; "bfs"; "b+tree"; "cfd"; "heartwall"; "hotspot"; "hotspot3D";
      "kmeans"; "lavaMD"; "leukocyte"; "lud"; "myocyte"; "nn"; "nw";
      "particlefilter"; "pathfinder"; "srad_v1"; "srad_v2"; "streamcluster" ]
    Workloads.Rodinia.names;
  (* the one namespace: every listed name resolves to itself, the
     seeded parcheck variants included, and the unknown-name hint
     offers exactly the listed names *)
  let module Reg = Workloads.Registry in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " resolves") true
        (match Reg.find name with Ok w -> w.w_name = name | Error _ -> false))
    Reg.names;
  Alcotest.(check bool) "seeded variants listed" true
    (List.for_all
       (fun n -> List.mem n Reg.names)
       [ "par_racy"; "par_reduction"; "par_private" ]);
  match Reg.find "nonesuch" with
  | Ok _ -> Alcotest.fail "unknown name resolved"
  | Error e ->
      Alcotest.(check string) "hint names every workload"
        (Printf.sprintf "unknown benchmark nonesuch (try: %s)"
           (String.concat ", " Reg.names))
        e

let test_every_workload_has_paper_row () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      Alcotest.(check bool) (w.w_name ^ " has a paper row") true
        (w.paper <> None))
    Workloads.Rodinia.all

let test_budget_forces_bailout () =
  (* even a benign benchmark bails when the budget is tiny *)
  let o = R.run ~budget:1 Workloads.Bfs.workload in
  Alcotest.(check bool) "bailed" true o.sched_bailed;
  Alcotest.(check bool) "no pipeline" true (o.pipeline = None);
  (* ... but its profiling columns are still filled *)
  Alcotest.(check bool) "ops recorded" true (o.row.Sched.Metrics.ops > 0);
  Alcotest.(check bool) "region recorded" true
    (o.row.Sched.Metrics.region <> "-")

let test_generous_budget_no_bailout () =
  let o = R.run ~budget:1_000_000 Workloads.Bfs.workload in
  Alcotest.(check bool) "not bailed" false o.sched_bailed;
  Alcotest.(check bool) "pipeline present" true (o.pipeline <> None)

let test_streamcluster_always_bails () =
  let o = R.run ~budget:1_000_000 Workloads.Streamcluster.workload in
  (* expect_sched_failure forces the bail-out regardless of the budget,
     mirroring the paper's memory exhaustion *)
  Alcotest.(check bool) "bailed" true o.sched_bailed

let test_table_rendering_columns () =
  let results = [ (Workloads.Bfs.workload, R.run Workloads.Bfs.workload) ] in
  let txt = R.table5 results in
  let lines = String.split_on_char '\n' txt in
  Alcotest.(check bool) "header + separator + row" true
    (List.length lines >= 3);
  let with_paper = R.table5_with_paper results in
  Alcotest.(check bool) "paper row adds a line" true
    (List.length (String.split_on_char '\n' with_paper) > List.length lines)

let () =
  Alcotest.run "runner"
    [ ( "registry",
        [ Alcotest.test_case "names and order" `Quick test_registry;
          Alcotest.test_case "paper rows present" `Quick
            test_every_workload_has_paper_row ] );
      ( "budget",
        [ Alcotest.test_case "tiny budget bails" `Quick test_budget_forces_bailout;
          Alcotest.test_case "generous budget runs" `Quick
            test_generous_budget_no_bailout;
          Alcotest.test_case "streamcluster bails" `Slow
            test_streamcluster_always_bails ] );
      ( "rendering",
        [ Alcotest.test_case "table columns" `Quick test_table_rendering_columns ]
      ) ]
