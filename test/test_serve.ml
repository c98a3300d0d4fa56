(* Tests for the lib/serve profiling-as-a-service layer:

   - Prog_hash: SHA-256 against the FIPS 180-4 vectors; the job key is
     sensitive to kind, params and program, insensitive to param order;
   - Cache: LRU eviction under a byte budget, persistence round-trip,
     single-byte corruption of a persisted entry is rejected at load;
   - Engine: N concurrent submissions of one job → exactly one
     execution and N bit-identical reports; crash isolation (a raising
     executor fails its job, the pool survives); queued-deadline
     expiry; backpressure beyond queue_capacity; graceful shutdown
     drains the queue;
   - Jobs: a parcheck job's report embeds exactly the object
     [polyprof parcheck W --json] prints;
   - Http: request round-trip including query strings and bodies;
   - end-to-end: daemon on a Unix socket in a temp dir, submit twice
     via the client, second response is a cache hit with byte-identical
     report. *)

module J = Obs.Json_emit
module P = Serve.Proto
module E = Serve.Engine

let check = Alcotest.check
let sb = Alcotest.bool
let si = Alcotest.int
let ss = Alcotest.string

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

let tmpdir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

(* --- Prog_hash ----------------------------------------------------- *)

let test_sha256 () =
  check ss "empty string"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Polyprof.Prog_hash.sha256_hex "");
  check ss "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Polyprof.Prog_hash.sha256_hex "abc");
  check ss "448-bit vector"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Polyprof.Prog_hash.sha256_hex
       "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  (* crosses the 64-byte block boundary *)
  check ss "million a's"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Polyprof.Prog_hash.sha256_hex (String.make 1_000_000 'a'))

let gemm () =
  List.find
    (fun (w : Workloads.Workload.t) -> w.w_name = "gemm")
    Workloads.Polybench.all

let atax () =
  List.find
    (fun (w : Workloads.Workload.t) -> w.w_name = "atax")
    Workloads.Polybench.all

let test_job_key () =
  let g = (gemm ()).Workloads.Workload.hir in
  let a = (atax ()).Workloads.Workload.hir in
  let key = Polyprof.Prog_hash.job_key in
  check ss "deterministic"
    (key ~kind:"profile" ~params:[] g)
    (key ~kind:"profile" ~params:[] g);
  check sb "param order canonicalised" true
    (key ~kind:"autotune" ~params:[ ("beam", "2"); ("depth", "3") ] g
    = key ~kind:"autotune" ~params:[ ("depth", "3"); ("beam", "2") ] g);
  check sb "kind matters" true
    (key ~kind:"profile" ~params:[] g <> key ~kind:"verify" ~params:[] g);
  check sb "params matter" true
    (key ~kind:"autotune" ~params:[ ("beam", "2") ] g
    <> key ~kind:"autotune" ~params:[ ("beam", "3") ] g);
  check sb "program matters" true
    (key ~kind:"profile" ~params:[] g <> key ~kind:"profile" ~params:[] a);
  check si "key length" 64 (String.length (key ~kind:"profile" ~params:[] g))

(* --- Jobs ---------------------------------------------------------- *)

let test_parcheck_job_matches_cli () =
  List.iter
    (fun name ->
      let w =
        match Serve.Jobs.find_workload name with
        | Ok w -> w
        | Error e -> Alcotest.fail e
      in
      let x = Serve.Jobs.execute (P.spec ~kind:P.Parcheck ~bench:name ()) in
      let cli =
        Workloads.Parcheck_driver.to_json (Workloads.Parcheck_driver.run w)
      in
      match J.parse x.E.x_report with
      | Error e -> Alcotest.failf "%s: report does not parse: %s" name e
      | Ok doc ->
          let member = Option.value ~default:J.Null (J.member "parcheck" doc) in
          check ss
            (name ^ ": parcheck member = polyprof parcheck --json")
            (J.to_string cli) (J.to_string member))
    [ "par_racy"; "atax" ]

(* --- Proto --------------------------------------------------------- *)

let test_proto_roundtrip () =
  let spec =
    P.spec ~kind:P.Autotune ~bench:"gemm"
      ~params:[ ("depth", "2"); ("beam", "3") ]
      ~deadline_s:1.5 ()
  in
  (match P.spec_of_json (P.spec_to_json spec) with
  | Ok spec' -> check sb "round-trip" true (spec = spec')
  | Error e -> Alcotest.failf "round-trip failed: %s" e);
  check sb "params sorted by the smart constructor" true
    (spec.P.sp_params = [ ("beam", "3"); ("depth", "2") ]);
  (match P.spec_of_json (J.Obj [ ("kind", J.Str "profile") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing bench accepted");
  match P.spec_of_json (J.Obj [ ("kind", J.Str "launder"); ("bench", J.Str "x") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown kind accepted"

(* --- Cache --------------------------------------------------------- *)

let entry report = { Serve.Cache.e_report = report; e_artifact = None }

let key_of i = Polyprof.Prog_hash.sha256_hex (string_of_int i)

let test_cache_lru () =
  (* each entry costs 64 (key) + 100 (report) + 256 (overhead) = 420
     bytes; a 1300-byte budget holds three *)
  let c = Serve.Cache.create ~max_bytes:1300 () in
  let report i = Printf.sprintf "%06d%s" i (String.make 94 'r') in
  Serve.Cache.add c (key_of 1) (entry (report 1));
  Serve.Cache.add c (key_of 2) (entry (report 2));
  Serve.Cache.add c (key_of 3) (entry (report 3));
  check si "three fit" 3 (Serve.Cache.stats c).Serve.Cache.c_entries;
  (* touch 1 so 2 is the least recently used *)
  ignore (Serve.Cache.find c (key_of 1));
  Serve.Cache.add c (key_of 4) (entry (report 4));
  let s = Serve.Cache.stats c in
  check si "still three" 3 s.Serve.Cache.c_entries;
  check si "one eviction" 1 s.Serve.Cache.c_evictions;
  check sb "LRU entry 2 evicted" true (Serve.Cache.find c (key_of 2) = None);
  check sb "recently used 1 kept" true (Serve.Cache.find c (key_of 1) <> None);
  check sb "budget respected" true (s.Serve.Cache.c_bytes <= 1300);
  (* an entry larger than the whole budget is not admitted *)
  Serve.Cache.add c (key_of 5) (entry (String.make 2000 'x'));
  check sb "oversized not admitted" true (Serve.Cache.find c (key_of 5) = None)

let test_cache_persistence () =
  let dir = tmpdir "polyprof_cache" in
  let k = key_of 42 in
  let e = { Serve.Cache.e_report = "the report"; e_artifact = Some "trace" } in
  let c = Serve.Cache.create ~persist_dir:dir ~max_bytes:1_000_000 () in
  Serve.Cache.add c k e;
  (* a fresh cache on the same dir reloads the entry *)
  let c2 = Serve.Cache.create ~persist_dir:dir ~max_bytes:1_000_000 () in
  check si "one loaded" 1 (Serve.Cache.stats c2).Serve.Cache.c_loaded;
  (match Serve.Cache.find c2 k with
  | Some e' -> check sb "round-trip" true (e = e')
  | None -> Alcotest.fail "persisted entry not found");
  (* flip one byte of the payload: the CRC seal must reject the file *)
  let path = Filename.concat dir (k ^ ".jc") in
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let bytes = really_input_string ic n in
  close_in ic;
  let corrupted = Bytes.of_string bytes in
  Bytes.set corrupted (n - 1) (Char.chr (Char.code (Bytes.get corrupted (n - 1)) lxor 1));
  let oc = open_out_bin path in
  output_bytes oc corrupted;
  close_out oc;
  let c3 = Serve.Cache.create ~persist_dir:dir ~max_bytes:1_000_000 () in
  let s3 = Serve.Cache.stats c3 in
  check si "corrupt entry rejected" 1 s3.Serve.Cache.c_rejected;
  check si "nothing loaded" 0 s3.Serve.Cache.c_loaded;
  check sb "not served" true (Serve.Cache.find c3 k = None);
  (* a foreign file in the dir is ignored, not trusted *)
  let oc = open_out_bin (Filename.concat dir (key_of 7 ^ ".jc")) in
  output_string oc "not a cache entry";
  close_out oc;
  let c4 = Serve.Cache.create ~persist_dir:dir ~max_bytes:1_000_000 () in
  check si "foreign file rejected" 2 (Serve.Cache.stats c4).Serve.Cache.c_rejected

(* --- Engine -------------------------------------------------------- *)

let slow_exec ?(delay = 0.02) () =
  let runs = Atomic.make 0 in
  let exec (spec : P.spec) =
    Atomic.incr runs;
    Unix.sleepf delay;
    { E.x_report =
        Printf.sprintf "{\"bench\":%s,\"run\":\"report\"}"
          (J.escape_string spec.P.sp_bench);
      x_span = None }
  in
  (runs, exec)

let submit_ok engine ~key spec =
  match E.submit engine ~key spec with
  | E.Hit j | E.Joined j | E.Enqueued j -> j
  | E.Overloaded -> Alcotest.fail "unexpected Overloaded"
  | E.Closed -> Alcotest.fail "unexpected Closed"

let test_engine_dedup_determinism () =
  (* N client domains race to submit the same job: exactly one
     execution, and every client reads the same report bytes *)
  let runs, exec = slow_exec () in
  let engine = E.create ~exec { E.default_config with E.workers = 3 } in
  let spec = P.spec ~kind:P.Profile ~bench:"gemm" () in
  let key = String.make 64 'a' in
  let n = 8 in
  let barrier = Atomic.make 0 in
  let clients =
    List.init n (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr barrier;
            while Atomic.get barrier < n do Domain.cpu_relax () done;
            let j = submit_ok engine ~key spec in
            match E.await engine j.E.j_id ~timeout_s:30.0 () with
            | Some { E.j_state = P.Done; j_report = Some r; _ } -> r
            | _ -> "AWAIT FAILED"))
  in
  let reports = List.map Domain.join clients in
  E.shutdown engine;
  check si "exactly one execution" 1 (Atomic.get runs);
  List.iter
    (fun r -> check ss "bit-identical report" (List.hd reports) r)
    reports;
  check sb "no await failure" true (List.hd reports <> "AWAIT FAILED");
  let s = E.stats engine in
  check si "all submissions counted" n s.E.s_submitted;
  check si "hits + joins = n - 1" (n - 1) (s.E.s_cache_hits + s.E.s_joined)

let test_engine_crash_isolation () =
  let exec (spec : P.spec) =
    if spec.P.sp_bench = "boom" then failwith "executor exploded"
    else { E.x_report = "{\"ok\":true}"; x_span = None }
  in
  let engine = E.create ~exec { E.default_config with E.workers = 1 } in
  let key_boom = String.make 64 'b' in
  let key_ok = String.make 64 'c' in
  let jb = submit_ok engine ~key:key_boom (P.spec ~kind:P.Profile ~bench:"boom" ()) in
  (match E.await engine jb.E.j_id ~timeout_s:10.0 () with
  | Some { E.j_state = P.Failed msg; _ } ->
      check sb "failure message carries the exception" true
        (String.length msg > 0
        && contains msg "executor exploded")
  | _ -> Alcotest.fail "crash job did not fail");
  (* the same worker domain must still be alive and serving *)
  let jo = submit_ok engine ~key:key_ok (P.spec ~kind:P.Profile ~bench:"fine" ()) in
  (match E.await engine jo.E.j_id ~timeout_s:10.0 () with
  | Some { E.j_state = P.Done; _ } -> ()
  | _ -> Alcotest.fail "worker died with the crashed job");
  (* a failed job still owns a trace: queue wait + execution, and no
     cache store (nothing was cached) *)
  (match (Option.get (E.find_job engine jb.E.j_id)).E.j_trace_json with
  | Some tree ->
      check sb "failed trace has execute span" true (contains tree "execute");
      check sb "failed trace has no cache.store" false
        (contains tree "cache.store")
  | None -> Alcotest.fail "failed job has no trace");
  (* failed jobs are never cached: resubmitting boom executes again *)
  let jb2 = submit_ok engine ~key:key_boom (P.spec ~kind:P.Profile ~bench:"boom" ()) in
  check sb "failed job not served from cache" false jb2.E.j_from_cache;
  (match E.await engine jb2.E.j_id ~timeout_s:10.0 () with
  | Some { E.j_state = P.Failed _; _ } -> ()
  | _ -> Alcotest.fail "second crash did not fail");
  E.shutdown engine;
  let s = E.stats engine in
  check si "two failures" 2 s.E.s_failed;
  check si "one success" 1 s.E.s_completed


let test_engine_deadline () =
  (* one worker busy on a slow job; a second job with a tiny deadline
     expires in the queue and fails without executing *)
  let runs, exec = slow_exec ~delay:0.3 () in
  let engine = E.create ~exec { E.default_config with E.workers = 1 } in
  let j1 =
    submit_ok engine ~key:(String.make 64 'd') (P.spec ~kind:P.Profile ~bench:"slow" ())
  in
  Unix.sleepf 0.05 (* let the worker pick up j1 *);
  let j2 =
    submit_ok engine ~key:(String.make 64 'e')
      (P.spec ~kind:P.Profile ~bench:"late" ~deadline_s:0.01 ())
  in
  (match E.await engine j2.E.j_id ~timeout_s:10.0 () with
  | Some { E.j_state = P.Failed msg; _ } ->
      check sb "deadline message" true (contains msg "deadline")
  | _ -> Alcotest.fail "expired job did not fail");
  (match E.await engine j1.E.j_id ~timeout_s:10.0 () with
  | Some { E.j_state = P.Done; _ } -> ()
  | _ -> Alcotest.fail "slow job did not finish");
  E.shutdown engine;
  check si "expired job never executed" 1 (Atomic.get runs)

let test_engine_tracing () =
  let _, exec = slow_exec ~delay:0.01 () in
  let engine = E.create ~exec { E.default_config with E.workers = 1 } in
  let spec = P.spec ~kind:P.Profile ~bench:"gemm" () in
  let key = String.make 64 'f' in
  let j = submit_ok engine ~key spec in
  check si "trace id is 16 chars" 16 (String.length j.E.j_trace);
  check sb "trace id is hex" true
    (String.for_all
       (function 'a' .. 'f' | '0' .. '9' -> true | _ -> false)
       j.E.j_trace);
  (match E.await engine j.E.j_id ~timeout_s:30.0 () with
  | Some { E.j_state = P.Done; _ } -> ()
  | _ -> Alcotest.fail "traced job did not finish");
  (* the id resolves back to the job, and the span tree covers every
     phase: queue wait, execution, cache store, under the job root *)
  (match E.find_trace engine j.E.j_trace with
  | Some j' -> check si "find_trace resolves" j.E.j_id j'.E.j_id
  | None -> Alcotest.fail "trace id did not resolve");
  check sb "unknown trace id is None" true
    (E.find_trace engine (String.make 16 '0') = None);
  let tree =
    match (Option.get (E.find_job engine j.E.j_id)).E.j_trace_json with
    | Some t -> t
    | None -> Alcotest.fail "done job has no trace json"
  in
  (match J.parse tree with
  | Error e -> Alcotest.failf "trace json does not parse: %s" e
  | Ok doc -> (
      match J.member "traceEvents" doc with
      | Some (J.List events) ->
          let names =
            List.filter_map
              (fun ev ->
                match J.member "name" ev with
                | Some (J.Str n) -> Some n
                | _ -> None)
              events
          in
          List.iter
            (fun n ->
              check sb (Printf.sprintf "span %s present" n) true
                (List.mem n names))
            [ "job.profile.gemm"; "queue.wait"; "execute"; "cache.store" ]
      | _ -> Alcotest.fail "no traceEvents array"));
  (* the latency sample drained by the scraper carries the trace id *)
  (match E.drain_latencies engine with
  | [ (kind, ns, trace) ] ->
      check ss "latency kind" "profile" kind;
      check sb "latency positive" true (ns > 0);
      check ss "latency exemplar trace id" j.E.j_trace trace
  | l -> Alcotest.failf "expected one latency sample, got %d" (List.length l));
  (* a cache hit gets its own fresh trace with a cache.hit span *)
  let j2 =
    match E.submit engine ~key spec with
    | E.Hit j2 -> j2
    | _ -> Alcotest.fail "expected a cache Hit"
  in
  check sb "hit gets a fresh trace id" true (j2.E.j_trace <> j.E.j_trace);
  (match j2.E.j_trace_json with
  | Some t -> check sb "hit trace has cache.hit span" true (contains t "cache.hit")
  | None -> Alcotest.fail "hit has no trace json");
  E.shutdown engine

let test_cache_artifact_and_stability () =
  let dir = tmpdir "polyprof_cache_art" in
  let c = Serve.Cache.create ~persist_dir:dir ~max_bytes:1_000_000 () in
  let key = key_of 42 in
  Serve.Cache.add c key (entry "{\"v\":1,\"generated_utc\":\"t0\"}");
  let bytes0 = (Serve.Cache.stats c).Serve.Cache.c_bytes in
  (* a rerun differing only in generated_utc keeps the incumbent entry *)
  Serve.Cache.add c key (entry "{\"v\":1,\"generated_utc\":\"t1\"}");
  (match Serve.Cache.find c key with
  | Some e ->
      check ss "timestamp-only rerun keeps incumbent bytes"
        "{\"v\":1,\"generated_utc\":\"t0\"}" e.Serve.Cache.e_report
  | None -> Alcotest.fail "entry vanished");
  check si "byte accounting unchanged" bytes0
    (Serve.Cache.stats c).Serve.Cache.c_bytes;
  (* a real change replaces it *)
  Serve.Cache.add c key (entry "{\"v\":2,\"generated_utc\":\"t1\"}");
  (match Serve.Cache.find c key with
  | Some e ->
      check ss "real change replaces" "{\"v\":2,\"generated_utc\":\"t1\"}"
        e.Serve.Cache.e_report
  | None -> Alcotest.fail "entry vanished after update");
  (* set_artifact attaches in place, adjusts accounting and persists *)
  let before = (Serve.Cache.stats c).Serve.Cache.c_bytes in
  Serve.Cache.set_artifact c key "TRACE";
  (match Serve.Cache.find c key with
  | Some { Serve.Cache.e_artifact = Some "TRACE"; _ } -> ()
  | _ -> Alcotest.fail "artifact not attached");
  check si "accounting grew by the artifact size" (before + 5)
    (Serve.Cache.stats c).Serve.Cache.c_bytes;
  (* no-op on an absent key *)
  Serve.Cache.set_artifact c (key_of 43) "GHOST";
  check si "absent key untouched" 1 (Serve.Cache.stats c).Serve.Cache.c_entries;
  (* the artifact survives a warm restart *)
  let c2 = Serve.Cache.create ~persist_dir:dir ~max_bytes:1_000_000 () in
  match Serve.Cache.find c2 key with
  | Some { Serve.Cache.e_artifact = Some "TRACE"; e_report; _ } ->
      check ss "report survives restart" "{\"v\":2,\"generated_utc\":\"t1\"}"
        e_report
  | _ -> Alcotest.fail "artifact lost across restart"

let test_engine_backpressure () =
  let _, exec = slow_exec ~delay:0.2 () in
  let engine =
    E.create ~exec { E.default_config with E.workers = 1; queue_capacity = 2 }
  in
  let spec i = P.spec ~kind:P.Profile ~bench:(Printf.sprintf "b%d" i) () in
  let key i = Polyprof.Prog_hash.sha256_hex (string_of_int i) in
  ignore (submit_ok engine ~key:(key 0) (spec 0));
  Unix.sleepf 0.05 (* worker takes job 0; queue is empty again *);
  ignore (submit_ok engine ~key:(key 1) (spec 1));
  ignore (submit_ok engine ~key:(key 2) (spec 2));
  (* queue full now *)
  (match E.submit engine ~key:(key 3) (spec 3) with
  | E.Overloaded -> ()
  | _ -> Alcotest.fail "expected Overloaded");
  E.shutdown engine (* graceful: drains jobs 1 and 2 *);
  (match E.submit engine ~key:(key 4) (spec 4) with
  | E.Closed -> ()
  | _ -> Alcotest.fail "expected Closed after shutdown");
  let s = E.stats engine in
  check si "overload counted" 1 s.E.s_overloaded;
  check si "queued jobs drained on shutdown" 3 s.E.s_completed

(* --- Http ---------------------------------------------------------- *)

let test_http_roundtrip () =
  let req_bytes =
    let buf = Buffer.create 256 in
    Buffer.add_string buf "POST /jobs?wait=1&n=5 HTTP/1.1\r\n";
    Buffer.add_string buf "Host: localhost\r\n";
    Buffer.add_string buf "Content-Length: 11\r\n\r\n";
    Buffer.add_string buf "hello world";
    Buffer.contents buf
  in
  let path = Filename.temp_file "polyprof_http" ".bin" in
  let oc = open_out_bin path in
  output_string oc req_bytes;
  close_out oc;
  let ic = open_in_bin path in
  (match Serve.Http.read_request ic with
  | Some rq ->
      check ss "method" "POST" rq.Serve.Http.rq_method;
      check ss "path" "/jobs" rq.Serve.Http.rq_path;
      check sb "query" true
        (List.assoc_opt "wait" rq.Serve.Http.rq_query = Some "1"
        && List.assoc_opt "n" rq.Serve.Http.rq_query = Some "5");
      check ss "body" "hello world" rq.Serve.Http.rq_body
  | None -> Alcotest.fail "request not parsed");
  close_in ic;
  Sys.remove path;
  (* garbage is Bad_request, not a crash *)
  let path = Filename.temp_file "polyprof_http" ".bin" in
  let oc = open_out_bin path in
  output_string oc "NOT HTTP AT ALL\r\n\r\n";
  close_out oc;
  let ic = open_in_bin path in
  (match Serve.Http.read_request ic with
  | exception Serve.Http.Bad_request _ -> ()
  | Some _ -> Alcotest.fail "garbage accepted"
  | None -> Alcotest.fail "garbage treated as EOF");
  close_in ic;
  Sys.remove path

(* --- end-to-end over a Unix socket --------------------------------- *)

let test_end_to_end () =
  let dir = tmpdir "polyprof_e2e" in
  let sock = Filename.concat dir "polyprof.sock" in
  let runs = Atomic.make 0 in
  let config =
    { Serve.Server.socket_path = sock;
      tcp_port = None;
      log_json = Some (Filename.concat dir "serve.log.jsonl");
      engine = { E.default_config with E.workers = 1 } }
  in
  (* the daemon loop runs on its own domain; /shutdown stops it *)
  let daemon = Domain.spawn (fun () -> Serve.Server.serve ~quiet:true config) in
  let ep = Serve.Client.Unix_sock sock in
  let rec wait_up tries =
    if tries = 0 then Alcotest.fail "daemon never came up";
    match Serve.Client.request ep ~meth:"GET" ~path:"/healthz" () with
    | Ok { Serve.Http.rs_status = 200; _ } -> ()
    | _ ->
        Unix.sleepf 0.05;
        wait_up (tries - 1)
  in
  wait_up 100;
  ignore (Atomic.get runs);
  let spec = P.spec ~kind:P.Profile ~bench:"gemm" () in
  let fetch_report () =
    match Serve.Client.submit ep spec with
    | Error e -> Alcotest.failf "submit failed: %s" e
    | Ok doc -> (
        let id =
          match Serve.Client.job_id_of doc with
          | Ok id -> id
          | Error e -> Alcotest.failf "no job id: %s" e
        in
        match Serve.Client.wait ep ~job_id:id ~timeout_s:120.0 () with
        | Error e -> Alcotest.failf "wait failed: %s" e
        | Ok _ -> (
            match
              Serve.Client.request ep ~meth:"GET"
                ~path:(Printf.sprintf "/jobs/%d/report" id)
                ()
            with
            | Ok { Serve.Http.rs_status = 200; rs_body; _ } -> (id, rs_body)
            | Ok rs -> Alcotest.failf "report HTTP %d" rs.Serve.Http.rs_status
            | Error e -> Alcotest.failf "report fetch failed: %s" e))
  in
  let id1, r1 = fetch_report () in
  let id2, r2 = fetch_report () in
  check sb "two distinct jobs" true (id1 <> id2);
  check ss "cache hit is byte-identical" r1 r2;
  (* the second submission was a hit, not a re-execution *)
  (match Serve.Client.request ep ~meth:"GET" ~path:(Printf.sprintf "/jobs/%d" id2) () with
  | Ok { Serve.Http.rs_status = 200; rs_body; _ } -> (
      match J.parse rs_body with
      | Ok doc -> (
          match J.member "from_cache" doc with
          | Some (J.Bool b) -> check sb "from_cache" true b
          | _ -> Alcotest.fail "no from_cache field")
      | Error e -> Alcotest.failf "bad status JSON: %s" e)
  | _ -> Alcotest.fail "status fetch failed");
  (* the status response carries a trace id that resolves over HTTP to
     a Chrome trace covering every phase the job passed through *)
  (match
     Serve.Client.request ep ~meth:"GET" ~path:(Printf.sprintf "/jobs/%d" id1) ()
   with
  | Ok { Serve.Http.rs_status = 200; rs_body; _ } -> (
      match J.parse rs_body with
      | Error e -> Alcotest.failf "bad status JSON: %s" e
      | Ok doc -> (
          match J.member "trace_id" doc with
          | Some (J.Str tid) -> (
              match
                Serve.Client.request ep ~meth:"GET" ~path:("/trace/" ^ tid) ()
              with
              | Ok { Serve.Http.rs_status = 200; rs_body = trace; _ } ->
                  (match J.parse trace with
                  | Ok _ -> ()
                  | Error e -> Alcotest.failf "trace is not JSON: %s" e);
                  List.iter
                    (fun phase ->
                      check sb (phase ^ " span served") true
                        (contains trace phase))
                    [ "traceEvents"; "queue.wait"; "execute"; "cache.store" ]
              | _ -> Alcotest.fail "trace fetch failed")
          | _ -> Alcotest.fail "status has no trace_id"))
  | _ -> Alcotest.fail "status fetch for trace failed");
  (* live metrics report exactly one execution, with an exemplar trace *)
  (match Serve.Client.request ep ~meth:"GET" ~path:"/metrics" () with
  | Ok { Serve.Http.rs_status = 200; rs_body; _ } ->
      check sb "metrics carry the execution counter" true
        (contains rs_body "polyprof_serve_executions_total 1");
      check sb "metrics carry a latency exemplar" true
        (contains rs_body "polyprof_serve_job_profile_ns_exemplar{trace_id=")
  | _ -> Alcotest.fail "metrics fetch failed");
  (match Serve.Client.request ep ~meth:"POST" ~path:"/shutdown" () with
  | Ok { Serve.Http.rs_status = 200; _ } -> ()
  | _ -> Alcotest.fail "shutdown failed");
  Domain.join daemon;
  check sb "socket unlinked" false (Sys.file_exists sock);
  (* the JSON-lines log sink captured the whole session *)
  let log_path = Filename.concat dir "serve.log.jsonl" in
  check sb "jsonl log written" true (Sys.file_exists log_path);
  let ic = open_in log_path in
  let n = in_channel_length ic in
  let log = really_input_string ic n in
  close_in ic;
  List.iter
    (fun ev -> check sb ("log has " ^ ev) true (contains log ev))
    [ "serve.start"; "serve.job.done"; "serve.job.hit"; "serve.stop" ]

(* The socket file appears only once the daemon listens: a client that
   connects the moment the file exists is served, with no retry. *)
let test_connect_when_socket_appears () =
  let dir = tmpdir "polyprof_bind" in
  let sock = Filename.concat dir "polyprof.sock" in
  let config =
    { Serve.Server.socket_path = sock;
      tcp_port = None;
      log_json = None;
      engine = { E.default_config with E.workers = 1 } }
  in
  let daemon = Domain.spawn (fun () -> Serve.Server.serve ~quiet:true config) in
  let rec wait tries =
    if not (Sys.file_exists sock) then begin
      if tries = 0 then Alcotest.fail "socket file never appeared";
      Unix.sleepf 0.0005;
      wait (tries - 1)
    end
  in
  wait 20_000;
  let ep = Serve.Client.Unix_sock sock in
  (match Serve.Client.request ep ~meth:"GET" ~path:"/healthz" () with
  | Ok { Serve.Http.rs_status = 200; _ } -> ()
  | Ok rs -> Alcotest.failf "healthz HTTP %d" rs.Serve.Http.rs_status
  | Error e -> Alcotest.failf "first connection failed: %s" e);
  (match Serve.Client.request ep ~meth:"POST" ~path:"/shutdown" () with
  | Ok { Serve.Http.rs_status = 200; _ } -> ()
  | _ -> Alcotest.fail "shutdown failed");
  Domain.join daemon

let () =
  Alcotest.run "serve"
    [ ( "prog_hash",
        [ Alcotest.test_case "sha256 vectors" `Quick test_sha256;
          Alcotest.test_case "job key" `Quick test_job_key ] );
      ( "proto",
        [ Alcotest.test_case "spec round-trip" `Quick test_proto_roundtrip ] );
      ( "jobs",
        [ Alcotest.test_case "parcheck report = CLI JSON" `Quick
            test_parcheck_job_matches_cli ] );
      ( "cache",
        [ Alcotest.test_case "lru eviction" `Quick test_cache_lru;
          Alcotest.test_case "persistence + corruption" `Quick
            test_cache_persistence;
          Alcotest.test_case "artifact attach + timestamp stability" `Quick
            test_cache_artifact_and_stability ] );
      ( "engine",
        [ Alcotest.test_case "concurrent dedup determinism" `Quick
            test_engine_dedup_determinism;
          Alcotest.test_case "crash isolation" `Quick
            test_engine_crash_isolation;
          Alcotest.test_case "queued deadline expiry" `Quick
            test_engine_deadline;
          Alcotest.test_case "request tracing" `Quick test_engine_tracing;
          Alcotest.test_case "backpressure + graceful shutdown" `Quick
            test_engine_backpressure ] );
      ( "http",
        [ Alcotest.test_case "request round-trip" `Quick test_http_roundtrip ] );
      ( "e2e",
        [ Alcotest.test_case "unix socket session" `Quick test_end_to_end;
          Alcotest.test_case "connect as soon as the socket exists" `Quick
            test_connect_when_socket_appears ] )
    ]
