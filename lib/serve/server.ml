module J = Obs.Json_emit

type config = {
  socket_path : string;
  tcp_port : int option;
  log_json : string option;  (** JSON-lines log sink, appended *)
  engine : Engine.config;
}

let default_socket = "polyprof.sock"

let default_config =
  { socket_path = default_socket;
    tcp_port = None;
    log_json = None;
    engine = Engine.default_config }

(* ------------------------------------------------------------------ *)
(* JSON views                                                          *)
(* ------------------------------------------------------------------ *)

let job_json ?(inline_report = false) (job : Engine.job) =
  let state = job.Engine.j_state in
  J.Obj
    ([ ("id", J.Int job.Engine.j_id);
       ("key", J.Str job.Engine.j_key);
       ("trace_id", J.Str job.Engine.j_trace);
       ("kind", J.Str (Proto.kind_to_string job.Engine.j_spec.Proto.sp_kind));
       ("bench", J.Str job.Engine.j_spec.Proto.sp_bench);
       ("state", J.Str (Proto.state_to_string state));
       ("from_cache", J.Bool job.Engine.j_from_cache) ]
    @ (match state with
      | Proto.Failed msg -> [ ("error", J.Str msg) ]
      | _ -> [])
    @ (match state with
      | Proto.Done | Proto.Failed _ ->
          [ ("wall_s", J.Float job.Engine.j_wall_s) ]
      | _ -> [])
    @
    if inline_report then
      match job.Engine.j_report with
      | Some r -> (
          match J.parse r with
          | Ok doc -> [ ("report", doc) ]
          | Error _ -> [])
      | None -> []
    else [])

let outcome_json outcome =
  match outcome with
  | Engine.Hit job ->
      (200, J.Obj [ ("outcome", J.Str "hit"); ("job", job_json job) ])
  | Engine.Joined job ->
      (200, J.Obj [ ("outcome", J.Str "joined"); ("job", job_json job) ])
  | Engine.Enqueued job ->
      (202, J.Obj [ ("outcome", J.Str "enqueued"); ("job", job_json job) ])
  | Engine.Overloaded ->
      (429, J.Obj [ ("outcome", J.Str "overloaded");
                    ("error", J.Str "job queue full, retry later") ])
  | Engine.Closed ->
      (503, J.Obj [ ("outcome", J.Str "closed");
                    ("error", J.Str "daemon is shutting down") ])

let error_json status msg = (status, J.Obj [ ("error", J.Str msg) ])

(* ------------------------------------------------------------------ *)
(* /metrics: the Obs exposition (worker sinks flushed after every job)
   plus a live serve section.  Obs gauges merge by high-watermark, so
   instantaneous values (queue depth, in-flight, cache bytes) are
   emitted here directly instead of going through a sink.               *)
(* ------------------------------------------------------------------ *)

let latency_hist kind =
  Obs.Metrics.histogram
    ~help:(Printf.sprintf "serve: %s job wall time (ns)" kind)
    (Printf.sprintf "serve.job.%s.ns" kind)

(* last-seen trace id per job kind: links a latency histogram bucket on
   the scrape page to one concrete resolvable trace *)
let exemplars : (string, int * string) Hashtbl.t = Hashtbl.create 8

let metrics_body engine =
  (* fold the latency samples recorded since the last scrape into the
     per-kind histograms (observed on this domain's live sink, which
     Obs.Metrics.snapshot includes) *)
  List.iter
    (fun (kind, ns, trace) ->
      Obs.Metrics.observe (latency_hist kind) ns;
      Hashtbl.replace exemplars kind (ns, trace))
    (Engine.drain_latencies engine);
  let s = Engine.stats engine in
  let c = s.Engine.s_cache in
  let b = Buffer.create 4096 in
  Buffer.add_string b (Obs.Prometheus.exposition (Obs.Metrics.snapshot ()));
  let kinds = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) exemplars []) in
  List.iter
    (fun kind ->
      let ns, trace = Hashtbl.find exemplars kind in
      let name = Printf.sprintf "polyprof_serve_job_%s_ns_exemplar" kind in
      Buffer.add_string b
        (Printf.sprintf
           "# HELP %s most recent %s job latency, with its trace id\n\
            # TYPE %s gauge\n\
            %s{trace_id=\"%s\"} %d\n"
           name kind name name trace ns))
    kinds;
  let line ?(typ = "gauge") name help v =
    Buffer.add_string b
      (Printf.sprintf "# HELP polyprof_serve_%s %s\n# TYPE polyprof_serve_%s %s\npolyprof_serve_%s %s\n"
         name help name typ name v)
  in
  let int_line ?typ name help v = line ?typ name help (string_of_int v) in
  int_line "queue_depth" "jobs waiting for a worker" s.Engine.s_queue_depth;
  int_line "in_flight" "jobs currently executing" s.Engine.s_in_flight;
  int_line ~typ:"counter" "jobs_submitted_total" "accepted submissions"
    s.Engine.s_submitted;
  int_line ~typ:"counter" "executions_total"
    "jobs a worker actually ran (cache hits and joins excluded)"
    s.Engine.s_executions;
  int_line ~typ:"counter" "jobs_completed_total" "jobs finished Done"
    s.Engine.s_completed;
  int_line ~typ:"counter" "jobs_failed_total" "jobs finished Failed"
    s.Engine.s_failed;
  int_line ~typ:"counter" "jobs_joined_total"
    "submissions coalesced onto an identical in-flight job"
    s.Engine.s_joined;
  int_line ~typ:"counter" "cache_hits_total" "submissions served from cache"
    s.Engine.s_cache_hits;
  int_line ~typ:"counter" "overloaded_total" "submissions rejected, queue full"
    s.Engine.s_overloaded;
  int_line "cache_entries" "cached results" c.Cache.c_entries;
  int_line "cache_bytes" "cached result bytes" c.Cache.c_bytes;
  int_line "cache_max_bytes" "cache byte budget" c.Cache.c_max_bytes;
  int_line ~typ:"counter" "cache_evictions_total" "LRU evictions"
    c.Cache.c_evictions;
  int_line ~typ:"counter" "cache_loaded_total"
    "entries loaded from the persist dir at startup" c.Cache.c_loaded;
  int_line ~typ:"counter" "cache_rejected_total"
    "corrupt persisted entries rejected at startup" c.Cache.c_rejected;
  let ratio =
    let total = c.Cache.c_hits + c.Cache.c_misses in
    if total = 0 then 0.0 else float_of_int c.Cache.c_hits /. float_of_int total
  in
  line "cache_hit_ratio" "cache hits / lookups" (Printf.sprintf "%.6f" ratio);
  line "uptime_seconds" "seconds since the engine started"
    (Printf.sprintf "%.3f" s.Engine.s_uptime_s);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)
(* ------------------------------------------------------------------ *)

type action = Respond of int * string * string | Shutdown of int * string

let json_action (status, doc) =
  Respond (status, "application/json", J.to_string doc)

let job_of_path engine rest =
  match int_of_string_opt rest with
  | None -> None
  | Some id -> Engine.find_job engine id

let handle engine (rq : Http.request) : action =
  match (rq.Http.rq_method, rq.Http.rq_path) with
  | "GET", "/healthz" ->
      Respond (200, "text/plain", "ok\n")
  | "GET", "/metrics" ->
      Respond (200, "text/plain; version=0.0.4", metrics_body engine)
  | "POST", "/shutdown" ->
      Shutdown (200, J.to_string (J.Obj [ ("shutdown", J.Bool true) ]))
  | "POST", "/jobs" -> (
      match J.parse rq.Http.rq_body with
      | Error e -> json_action (error_json 400 ("malformed JSON body: " ^ e))
      | Ok doc -> (
          match Proto.spec_of_json doc with
          | Error e -> json_action (error_json 400 e)
          | Ok spec -> (
              match Jobs.job_key spec with
              | Error e -> json_action (error_json 404 e)
              | Ok key ->
                  json_action (outcome_json (Engine.submit engine ~key spec)))))
  | "GET", "/jobs" ->
      let n =
        match List.assoc_opt "n" rq.Http.rq_query with
        | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 20)
        | None -> 20
      in
      json_action
        (200, J.List (List.map (job_json ?inline_report:None)
                        (Engine.recent_jobs engine n)))
  | "GET", path when String.length path > 7 && String.sub path 0 7 = "/trace/"
    -> (
      let tid = String.sub path 7 (String.length path - 7) in
      match Engine.find_trace engine tid with
      | None -> json_action (error_json 404 "no such trace")
      | Some job -> (
          match job.Engine.j_trace_json with
          | Some t -> Respond (200, "application/json", t)
          | None ->
              json_action
                (error_json 404
                   (Printf.sprintf "trace %s not complete yet (job %d is %s)"
                      tid job.Engine.j_id
                      (Proto.state_to_string job.Engine.j_state)))))
  | "GET", path when String.length path > 6 && String.sub path 0 6 = "/jobs/"
    -> (
      let rest = String.sub path 6 (String.length path - 6) in
      match String.index_opt rest '/' with
      | None -> (
          match job_of_path engine rest with
          | None -> json_action (error_json 404 "no such job")
          | Some job -> json_action (200, job_json ~inline_report:true job))
      | Some i -> (
          let id_s = String.sub rest 0 i in
          let leaf = String.sub rest (i + 1) (String.length rest - i - 1) in
          match job_of_path engine id_s with
          | None -> json_action (error_json 404 "no such job")
          | Some job -> (
              match leaf with
              | "report" -> (
                  match job.Engine.j_report with
                  | Some r -> Respond (200, "application/json", r)
                  | None ->
                      json_action
                        (error_json 404
                           (Printf.sprintf "job %d has no report (state %s)"
                              job.Engine.j_id
                              (Proto.state_to_string job.Engine.j_state))))
              | "artifact" -> (
                  match job.Engine.j_artifact with
                  | Some a -> Respond (200, "application/json", a)
                  | None -> json_action (error_json 404 "job has no artifact"))
              | "trace" -> (
                  match job.Engine.j_trace_json with
                  | Some t -> Respond (200, "application/json", t)
                  | None -> json_action (error_json 404 "job has no trace yet"))
              | _ -> json_action (error_json 404 "unknown route"))))
  | _ -> json_action (error_json 404 "unknown route")

(* ------------------------------------------------------------------ *)
(* Accept loop                                                         *)
(* ------------------------------------------------------------------ *)

(* The socket file appears at [path] only once it accepts connections:
   bind a temporary name, listen, then rename it into place, so a client
   that waits for the file never meets "Connection refused". *)
let listen_unix path =
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  (try Unix.unlink tmp with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX tmp);
  Unix.listen fd 64;
  Unix.rename tmp path;
  fd

let listen_tcp port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  fd

let stop_requested = ref false

let serve ?(quiet = false) config =
  (* structured logging replaces the old ad-hoc prints: the daemon logs
     at Info unless the operator chose a level via POLYPROF_LOG, the
     human sink follows [quiet], and --log-json adds a JSON-lines sink *)
  if Sys.getenv_opt Obs.Log.env_var = None then
    Obs.Log.set_level (Some Obs.Log.Info);
  let jsonl_oc =
    Option.map
      (fun path -> open_out_gen [ Open_append; Open_creat ] 0o644 path)
      config.log_json
  in
  let sinks =
    (if quiet then [] else [ Obs.Log.Human stdout ])
    @ match jsonl_oc with Some oc -> [ Obs.Log.Jsonl oc ] | None -> []
  in
  let flush_logs () = Obs.Log.flush_to sinks in
  (* a client hanging up mid-response must not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  stop_requested := false;
  let request_stop _ = stop_requested := true in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle request_stop) in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle request_stop) in
  let engine = Engine.create ~exec:Jobs.execute config.engine in
  let unix_fd = listen_unix config.socket_path in
  let tcp_fd = Option.map listen_tcp config.tcp_port in
  let listeners = unix_fd :: Option.to_list tcp_fd in
  Obs.Log.info "serve.start"
    ~fields:
      ([ ("socket", config.socket_path);
         ("workers", string_of_int config.engine.Engine.workers);
         ("queue", string_of_int config.engine.Engine.queue_capacity);
         ( "cache_mib",
           string_of_int (config.engine.Engine.cache_bytes / (1024 * 1024)) ) ]
      @ (match config.tcp_port with
        | Some p -> [ ("tcp_port", string_of_int p) ]
        | None -> [])
      @
      match config.engine.Engine.persist_dir with
      | Some d -> [ ("persist", d) ]
      | None -> [])
    "listening";
  flush_logs ();
  let handle_conn client =
    let ic = Unix.in_channel_of_descr client in
    let oc = Unix.out_channel_of_descr client in
    let finally () = try Unix.close client with Unix.Unix_error _ -> () in
    Fun.protect ~finally @@ fun () ->
    match Http.read_request ic with
    | None -> ()
    | Some rq -> (
        match handle engine rq with
        | Respond (status, content_type, body) ->
            Http.write_response oc ~status ~content_type body
        | Shutdown (status, body) ->
            Http.write_response oc ~status body;
            Obs.Log.info "serve.shutdown_requested" "shutdown via POST /shutdown";
            stop_requested := true)
    | exception Http.Bad_request msg ->
        Obs.Log.warn "serve.bad_request" ~fields:[ ("error", msg) ]
          "rejected malformed request";
        Http.write_response oc ~status:400
          (J.to_string (J.Obj [ ("error", J.Str msg) ]))
    | exception (Sys_error _ | End_of_file | Unix.Unix_error _) -> ()
  in
  let rec loop () =
    if !stop_requested then ()
    else
      match Unix.select listeners [] [] 0.25 with
      | readable, _, _ ->
          List.iter
            (fun fd ->
              match Unix.accept fd with
              | client, _ -> handle_conn client
              | exception Unix.Unix_error ((EAGAIN | EINTR), _, _) -> ())
            readable;
          flush_logs ();
          loop ()
      | exception Unix.Unix_error (EINTR, _, _) -> loop ()
  in
  loop ();
  Obs.Log.info "serve.drain"
    ~fields:
      [ ("queued", string_of_int (Engine.stats engine).Engine.s_queue_depth) ]
    "draining queue, joining workers";
  flush_logs ();
  Engine.shutdown engine;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) listeners;
  (try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
  Sys.set_signal Sys.sigint old_int;
  Sys.set_signal Sys.sigterm old_term;
  Obs.Log.info "serve.stop" "bye";
  flush_logs ();
  Option.iter close_out jsonl_oc
