type t = {
  name : string;
  events : int;
  n_control : int;
  n_exec : int;
  marshal_bytes : int;
  disk_bytes : int;
  enc_s : float;
  decoded : int;
  dec_s : float;
  seq_s : float;
  par_s : float;
  par : Stream.Par_profile.stats;
  stmts : int;
  deps : int;
  dep_edges : int;
  identical : bool;
}

let run ~domains (w : Workload.t) =
  let now = Obs.Clock.monotonic in
  let prog = Vm.Hir.lower w.Workload.hir in
  let path = Filename.temp_file "polyprof" ".trace" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let trace, stats = Vm.Trace.record prog in
  let marshal_bytes = String.length (Marshal.to_string trace []) in
  let t0 = now () in
  let disk_bytes = Stream.Trace_file.save ~stats trace path in
  let enc_s = now () -. t0 in
  let t0 = now () in
  let decoded =
    Stream.Source.with_file path (fun src ->
        let n = ref 0 in
        Stream.Source.iter src (fun _ -> incr n);
        !n)
  in
  let dec_s = now () -. t0 in
  let structure = Stream.Trace_file.structure prog path in
  let t0 = now () in
  let seq =
    Ddg.Depprof.profile_replay
      ~feed:(fun cb ->
        Stream.Source.with_file path (fun src -> Stream.Source.replay src cb))
      ~run_stats:stats prog ~structure
  in
  let seq_s = now () -. t0 in
  let t0 = now () in
  let { Stream.Par_profile.result = p; par_stats } =
    Stream.Par_profile.profile_file ~domains path prog ~structure
  in
  let par_s = now () -. t0 in
  { name = w.Workload.w_name;
    events = Vm.Trace.n_events trace;
    n_control = Vm.Trace.n_control trace;
    n_exec = Vm.Trace.n_exec trace;
    marshal_bytes;
    disk_bytes;
    enc_s;
    decoded;
    dec_s;
    seq_s;
    par_s;
    par = par_stats;
    stmts = List.length p.Ddg.Depprof.stmts;
    deps = List.length p.Ddg.Depprof.deps;
    dep_edges = p.Ddg.Depprof.total_dep_edges;
    identical =
      (seq.Ddg.Depprof.stmts, seq.deps, seq.pruned_dep_edges,
       seq.total_dep_edges, seq.run_stats)
      = (p.Ddg.Depprof.stmts, p.deps, p.pruned_dep_edges, p.total_dep_edges,
         p.run_stats) }

let sound r = r.identical
let compression r = float_of_int r.marshal_bytes /. float_of_int (max 1 r.disk_bytes)
let mb_s bytes s = float_of_int bytes /. (s +. 1e-9) /. (1024. *. 1024.)
let mev_s n s = float_of_int n /. (s +. 1e-9) /. 1e6
let speedup r = r.seq_s /. (r.par_s +. 1e-9)

let to_json r =
  let open Obs.Json_emit in
  let ints a = List (Array.to_list (Array.map (fun i -> Int i) a)) in
  Obj
    [ ("name", Str r.name);
      ("events", Int r.events);
      ("disk_bytes", Int r.disk_bytes);
      ("marshal_bytes", Int r.marshal_bytes);
      ("compression", Float (compression r));
      ("encode_mb_s", Float (mb_s r.disk_bytes r.enc_s));
      ("decode_mb_s", Float (mb_s r.disk_bytes r.dec_s));
      ("seq_seconds", Float r.seq_s);
      ("par_seconds", Float r.par_s);
      ("speedup", Float (speedup r));
      ("replay_seconds", Float r.par.Stream.Par_profile.replay_seconds);
      ("merge_seconds", Float r.par.Stream.Par_profile.merge_seconds);
      ("domain_events", ints r.par.Stream.Par_profile.per_domain_events);
      ("peak_shadow", ints r.par.Stream.Par_profile.per_domain_peak_shadow);
      ("identical", Bool r.identical) ]

let pp fmt r =
  let ints a = String.concat " " (Array.to_list (Array.map string_of_int a)) in
  let ps = r.par in
  Format.fprintf fmt "== trace stats: %s ==@." r.name;
  Format.fprintf fmt "events          %d (%d control, %d exec)@." r.events
    r.n_control r.n_exec;
  Format.fprintf fmt "bytes on disk   %d (in-memory %d, %.1fx smaller)@."
    r.disk_bytes r.marshal_bytes (compression r);
  Format.fprintf fmt "encode          %.2f Mev/s, %.1f MB/s@."
    (mev_s r.events r.enc_s) (mb_s r.disk_bytes r.enc_s);
  Format.fprintf fmt "decode          %.2f Mev/s, %.1f MB/s (%d events)@."
    (mev_s r.decoded r.dec_s) (mb_s r.disk_bytes r.dec_s) r.decoded;
  Format.fprintf fmt "== sharded profile (%d domains) ==@."
    ps.Stream.Par_profile.domains;
  Format.fprintf fmt "domain events   [%s]@."
    (ints ps.Stream.Par_profile.per_domain_events);
  Format.fprintf fmt "domain edges    [%s]@."
    (ints ps.Stream.Par_profile.per_domain_dep_edges);
  Format.fprintf fmt "peak shadow     [%s]@."
    (ints ps.Stream.Par_profile.per_domain_peak_shadow);
  Format.fprintf fmt "replay          %.3f s, merge %.3f s@."
    ps.Stream.Par_profile.replay_seconds ps.Stream.Par_profile.merge_seconds;
  Format.fprintf fmt
    "profile         %d statements, %d dependence relations, %d dynamic \
     edges@."
    r.stmts r.deps r.dep_edges;
  Format.fprintf fmt "sequential      %.3f s, sharded %.3f s: results %s@."
    r.seq_s r.par_s
    (if r.identical then "IDENTICAL" else "DIFFER")

let table rs =
  let domains =
    match rs with r :: _ -> r.par.Stream.Par_profile.domains | [] -> 0
  in
  let header =
    [ "benchmark"; "events"; "disk KB"; "marshal KB"; "ratio"; "enc MB/s";
      "dec MB/s"; "seq s"; Printf.sprintf "par(%d) s" domains; "speedup";
      "same" ]
  in
  let row r =
    [ r.name;
      string_of_int r.events;
      string_of_int (r.disk_bytes / 1024);
      string_of_int (r.marshal_bytes / 1024);
      Printf.sprintf "%.1fx" (compression r);
      Printf.sprintf "%.1f" (mb_s r.disk_bytes r.enc_s);
      Printf.sprintf "%.1f" (mb_s r.disk_bytes r.dec_s);
      Printf.sprintf "%.3f" r.seq_s;
      Printf.sprintf "%.3f" r.par_s;
      Printf.sprintf "%.2fx" (speedup r);
      (if r.identical then "Y" else "N!") ]
  in
  Report.Texttable.render ~header (List.map row rs)
