type level = Debug | Info | Warn | Error

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Global threshold: one atomic int, 4 = off.  The emit hot path is a
   single atomic load and an int compare when logging is off — the same
   discipline as Registry.enabled for metrics/spans, so the
   telemetry-off overhead ladder is unaffected.                        *)
(* ------------------------------------------------------------------ *)

let off_rank = 4
let env_var = "POLYPROF_LOG"

let env_threshold =
  match Sys.getenv_opt env_var with
  | None -> off_rank
  | Some v -> (
      match level_of_string v with
      | Some l -> level_rank l
      | None -> (
          match String.lowercase_ascii (String.trim v) with
          | "" | "0" | "off" | "false" | "no" -> off_rank
          | _ -> level_rank Info))

let threshold = Atomic.make env_threshold

let set_level = function
  | None -> Atomic.set threshold off_rank
  | Some l -> Atomic.set threshold (level_rank l)

let enabled l = level_rank l >= Atomic.get threshold

(* ------------------------------------------------------------------ *)
(* Records and rings                                                   *)
(* ------------------------------------------------------------------ *)

type record = {
  r_seq : int;  (** globally unique, monotone across all domains *)
  r_ts_ns : int;
  r_domain : int;
  r_level : level;
  r_event : string;
  r_msg : string;
  r_fields : (string * string) list;
}

module Ring = struct
  type t = {
    buf : record option array;
    capacity : int;
    mutable first : int;  (* index of the oldest live record *)
    mutable len : int;
    mutable dropped : int;
  }

  let create ~capacity =
    let capacity = max 1 capacity in
    { buf = Array.make capacity None; capacity; first = 0; len = 0;
      dropped = 0 }

  let push t r =
    if t.len < t.capacity then begin
      t.buf.((t.first + t.len) mod t.capacity) <- Some r;
      t.len <- t.len + 1
    end
    else begin
      (* full: overwrite the oldest and count the loss *)
      t.buf.(t.first) <- Some r;
      t.first <- (t.first + 1) mod t.capacity;
      t.dropped <- t.dropped + 1
    end

  let dropped t = t.dropped

  let drain t =
    let out = ref [] in
    for i = t.len - 1 downto 0 do
      match t.buf.((t.first + i) mod t.capacity) with
      | Some r -> out := r :: !out
      | None -> ()
    done;
    Array.fill t.buf 0 t.capacity None;
    t.first <- 0;
    t.len <- 0;
    !out
end

(* ------------------------------------------------------------------ *)
(* Per-domain plumbing.  Each domain owns one ring reached through DLS
   (lock-free emit); rings self-register in a global mutex-protected
   list so a collector on any domain can drain them all.  Cross-domain
   drains read another domain's mutable ring state without a lock: each
   slot holds an immutable record, so the worst case is a dropped or
   duplicated record in one snapshot, never a torn one — collectors run
   at quiesce points (daemon accept loop, after Domain.join in tests). *)
(* ------------------------------------------------------------------ *)

let default_capacity = 4096

let rings_mutex = Mutex.create ()
let rings : Ring.t list ref = ref []

let new_ring () =
  let r = Ring.create ~capacity:default_capacity in
  Mutex.protect rings_mutex (fun () -> rings := r :: !rings);
  r

let dls_ring = Domain.DLS.new_key new_ring
let current_ring () = Domain.DLS.get dls_ring

let seq_counter = Atomic.make 0

let emit level event ?(fields = []) msg =
  if enabled level then begin
    let seq = Atomic.fetch_and_add seq_counter 1 in
    let r =
      { r_seq = seq;
        r_ts_ns = Clock.now_ns ();
        r_domain = (Domain.self () :> int);
        r_level = level;
        r_event = event;
        r_msg = msg;
        r_fields = fields }
    in
    Ring.push (current_ring ()) r
  end

let logf level event ?fields fmt =
  Printf.ksprintf (fun msg -> emit level event ?fields msg) fmt

let info ?fields event fmt = logf Info event ?fields fmt
let warn ?fields event fmt = logf Warn event ?fields fmt
let error ?fields event fmt = logf Error event ?fields fmt

(* ------------------------------------------------------------------ *)
(* Collection                                                          *)
(* ------------------------------------------------------------------ *)

let by_seq a b = compare a.r_seq b.r_seq

let drain () =
  let rs = Mutex.protect rings_mutex (fun () -> !rings) in
  List.sort by_seq (List.concat_map Ring.drain rs)

let dropped () =
  let rs = Mutex.protect rings_mutex (fun () -> !rings) in
  List.fold_left (fun acc r -> acc + Ring.dropped r) 0 rs

let reset () =
  ignore (drain ());
  Mutex.protect rings_mutex (fun () -> rings := []);
  Domain.DLS.set dls_ring (new_ring ())

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

let to_json r =
  let module J = Json_emit in
  let known k = List.mem k [ "trace_id"; "job_id" ] in
  let promoted =
    List.filter_map
      (fun (k, v) -> if known k then Some (k, J.Str v) else None)
      r.r_fields
  in
  let rest =
    List.filter_map
      (fun (k, v) -> if known k then None else Some (k, J.Str v))
      r.r_fields
  in
  J.Obj
    ([ ("schema_version", J.Int Schemas.log);
       ("seq", J.Int r.r_seq);
       ("ts_ns", J.Int r.r_ts_ns);
       ("level", J.Str (level_name r.r_level));
       ("domain", J.Int r.r_domain);
       ("event", J.Str r.r_event);
       ("msg", J.Str r.r_msg) ]
    @ promoted
    @ (match rest with [] -> [] | fs -> [ ("fields", J.Obj fs) ]))

let to_jsonl r = Json_emit.to_string (to_json r)

let to_human r =
  let fields =
    match r.r_fields with
    | [] -> ""
    | fs ->
        " "
        ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) fs)
  in
  Printf.sprintf "[%8.3f] %-5s d%d %s: %s%s"
    (float_of_int r.r_ts_ns /. 1e9)
    (level_name r.r_level) r.r_domain r.r_event r.r_msg fields

type sink = Human of out_channel | Jsonl of out_channel

let write_record sink r =
  match sink with
  | Human oc ->
      output_string oc (to_human r);
      output_char oc '\n'
  | Jsonl oc ->
      output_string oc (to_jsonl r);
      output_char oc '\n'

let flush_to sinks =
  match sinks with
  | [] -> ignore (drain ())
  | _ ->
      let records = drain () in
      if records <> [] then begin
        List.iter
          (fun sink ->
            List.iter (write_record sink) records;
            match sink with Human oc | Jsonl oc -> flush oc)
          sinks
      end
