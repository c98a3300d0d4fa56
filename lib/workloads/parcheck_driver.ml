module P = Analysis.Parcheck

type t = {
  name : string;
  pc : P.t;
  san : Ddg.Race_san.report option;
  diags : Analysis.Diag.t list option;
  static_s : float;
  san_s : float;
}

let run ?(static_only = false) (w : Workload.t) =
  let now = Obs.Clock.monotonic in
  let prog = Vm.Hir.lower w.Workload.hir in
  let t0 = now () in
  let pc = P.analyse prog in
  let static_s = now () -. t0 in
  let r =
    { name = w.Workload.w_name;
      pc;
      san = None;
      diags = None;
      static_s;
      san_s = 0.0 }
  in
  if static_only then r
  else
    let t0 = now () in
    let san = P.sanitize pc in
    let san_s = now () -. t0 in
    { r with san = Some san; diags = Some (P.crosscheck pc san); san_s }

let sound r =
  match r.diags with Some ds -> P.crosscheck_ok ds | None -> true

let dim_json (d : P.dim_report) =
  let open Obs.Json_emit in
  Obj
    ([ ("fid", Int d.P.dr_fid);
       ("header", Int d.P.dr_header);
       ("depth", Int d.P.dr_depth);
       ( "loc",
         match d.P.dr_loc with
         | Some l -> Str (Printf.sprintf "%s:%d" l.Vm.Prog.file l.Vm.Prog.line)
         | None -> Null );
       ("verdict", Str (P.verdict_code d.P.dr_verdict)) ]
    @
    match d.P.dr_verdict with
    | P.Certified c ->
        [ ("pairs", Int c.P.ct_pairs);
          ("private_regions", Int (List.length c.P.ct_private));
          ("reduction_accesses", Int (List.length c.P.ct_reductions)) ]
    | P.Race ws -> [ ("witnesses", Int (List.length ws)) ]
    | P.Unknown why -> [ ("reason", Str why) ])

let sanitizer_json (r : Ddg.Race_san.report) =
  let open Obs.Json_emit in
  Obj
    [ ("accesses", Int r.Ddg.Race_san.sr_accesses);
      ("races_on_certified", Int (Ddg.Race_san.races_on_certified r));
      ( "claims",
        List
          (List.map
             (fun (cs : Ddg.Race_san.claim_stats) ->
               let cl = cs.Ddg.Race_san.cs_claim in
               Obj
                 [ ("label", Str cl.Ddg.Race_san.cl_label);
                   ("certified", Bool cl.Ddg.Race_san.cl_certified);
                   ("instances", Int cs.Ddg.Race_san.cs_instances);
                   ("iterations", Int cs.Ddg.Race_san.cs_iterations);
                   ("races", Int cs.Ddg.Race_san.cs_n_races);
                   ("covered", Int cs.Ddg.Race_san.cs_covered) ])
             r.Ddg.Race_san.sr_claims) ) ]

let to_json r =
  let open Obs.Json_emit in
  Obj
    ([ ("name", Str r.name);
       ("dims", List (List.map dim_json r.pc.P.pc_dims));
       ("certified", Int (P.n_certified r.pc));
       ("races", Int (P.n_races r.pc)) ]
    @ (match r.san with
      | Some s -> [ ("sanitizer", sanitizer_json s) ]
      | None -> [])
    @
    match r.diags with
    | Some ds ->
        [ ("crosscheck_ok", Bool (P.crosscheck_ok ds));
          ( "diagnostics",
            List (List.map (fun d -> Str (Analysis.Diag.to_string d)) ds) ) ]
    | None -> [])

let pp fmt r =
  Format.fprintf fmt "%a@." P.pp r.pc;
  Option.iter (Format.fprintf fmt "%a" Ddg.Race_san.pp_report) r.san;
  Option.iter
    (List.iter (fun d -> Format.fprintf fmt "%s@." (Analysis.Diag.to_string d)))
    r.diags

let table rs =
  let static_only = List.for_all (fun r -> r.san = None) rs in
  let header =
    [ "Workload"; "Dims"; "Cert"; "Race"; "Unk" ]
    @ if static_only then [] else [ "SanRaces"; "Xcheck" ]
  in
  let row r =
    let dims = List.length r.pc.P.pc_dims in
    let cert = P.n_certified r.pc in
    let race = P.n_races r.pc in
    [ r.name;
      string_of_int dims;
      string_of_int cert;
      string_of_int race;
      string_of_int (dims - cert - race) ]
    @
    if static_only then []
    else
      [ (match r.san with
        | Some s ->
            string_of_int
              (List.fold_left
                 (fun a (cs : Ddg.Race_san.claim_stats) ->
                   a + cs.Ddg.Race_san.cs_n_races)
                 0 s.Ddg.Race_san.sr_claims)
        | None -> "-");
        (if sound r then "ok" else "FAIL!") ]
  in
  Report.Texttable.render ~header (List.map row rs)
