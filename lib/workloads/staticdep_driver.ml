module S = Analysis.Statdep

type prune = {
  dyn_mem_ops : int;
  pruned_dyn : int;
  witnesses : int;
  reruns : int;
  equal : bool;
  full_s : float;
  pruned_s : float;
}

type t = { name : string; sd : S.t; prune : prune option }

let prune_run prog =
  let now = Obs.Clock.monotonic in
  let structure = Cfg.Cfg_builder.run prog in
  let t0 = now () in
  let full = Ddg.Depprof.profile prog ~structure in
  let full_s = now () -. t0 in
  let t0 = now () in
  let _sd, pruned, reruns = S.fallback_profile prog ~structure in
  let pruned_s = now () -. t0 in
  { dyn_mem_ops = full.Ddg.Depprof.run_stats.Vm.Interp.dyn_mem_ops;
    pruned_dyn = pruned.Ddg.Depprof.statically_pruned;
    witnesses = List.length pruned.Ddg.Depprof.witnesses;
    reruns;
    equal = Ddg.Depprof.equal_result full pruned;
    full_s;
    pruned_s }

let run ?(prune = false) (w : Workload.t) =
  let prog = Vm.Hir.lower w.Workload.hir in
  let sd = S.analyse prog in
  { name = w.Workload.w_name;
    sd;
    prune = (if prune then Some (prune_run prog) else None) }

let sound r = match r.prune with Some p -> p.equal | None -> true

let pruned_pct p =
  100.0 *. float_of_int p.pruned_dyn /. float_of_int (max 1 p.dyn_mem_ops)

let possible_pairs sd =
  List.length (List.filter (fun (p : S.pair_dep) -> p.S.pd_possible) sd.S.pairs)

let to_json r =
  let open Obs.Json_emit in
  Obj
    ([ ("name", Str r.name);
       ("accesses", Int r.sd.S.n_accesses);
       ("resolved", Int (S.n_resolved r.sd));
       ("pruned", Int (S.n_pruned r.sd));
       ( "prunable_regions",
         List (List.map (fun s -> Str s) (S.prunable_regions r.sd)) );
       ("pairs", Int (List.length r.sd.S.pairs));
       ("possible_pairs", Int (possible_pairs r.sd)) ]
    @
    match r.prune with
    | None -> []
    | Some p ->
        [ ("pruned_dynamic", Int p.pruned_dyn);
          ("dyn_mem_ops", Int p.dyn_mem_ops);
          ( "pruned_fraction",
            Float
              (float_of_int p.pruned_dyn /. float_of_int (max 1 p.dyn_mem_ops))
          );
          ("profiles_equal", Bool p.equal);
          ("speculative_witnesses", Int p.witnesses);
          ("witness_reruns", Int p.reruns) ])

let plural n = if n = 1 then "" else "s"

let pp fmt r =
  Format.fprintf fmt "%a@." S.pp r.sd;
  Option.iter
    (fun p ->
      Format.fprintf fmt
        "pruning: %d/%d dynamic accesses skipped shadow tracking (%.1f%%), \
         %d witness probe%s, %d witness-failure rerun%s, pruned profile %s \
         the unpruned one@."
        p.pruned_dyn p.dyn_mem_ops (pruned_pct p) p.witnesses
        (plural p.witnesses) p.reruns (plural p.reruns)
        (if p.equal then "IDENTICAL to" else "DIFFERS from"))
    r.prune

let table rs =
  let with_prune =
    match rs with { prune = Some _; _ } :: _ -> true | _ -> false
  in
  let header =
    [ "Workload"; "Acc"; "Res"; "Pruned"; "Regions"; "Pairs"; "Dep" ]
    @ if with_prune then [ "DynPruned"; "Wit"; "Fail"; "Equal" ] else []
  in
  let row r =
    [ r.name;
      string_of_int r.sd.S.n_accesses;
      string_of_int (S.n_resolved r.sd);
      string_of_int (S.n_pruned r.sd);
      string_of_int (List.length (S.prunable_regions r.sd));
      string_of_int (List.length r.sd.S.pairs);
      string_of_int (possible_pairs r.sd) ]
    @
    match r.prune with
    | None -> []
    | Some p ->
        [ Printf.sprintf "%d/%d (%.0f%%)" p.pruned_dyn p.dyn_mem_ops
            (pruned_pct p);
          string_of_int p.witnesses;
          string_of_int p.reruns;
          (if p.equal then "Y" else "N!") ]
  in
  Report.Texttable.render ~header (List.map row rs)
