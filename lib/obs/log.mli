(** Leveled structured logging on per-domain ring buffers.

    Each domain emits into its own fixed-capacity ring reached through
    [Domain.DLS] — no locks or atomics on the record path beyond one
    global sequence counter — so workers never contend while logging.
    A collector (the serve daemon's accept loop, [flush_to] in the CLI)
    drains every ring and merges the records into one stream ordered by
    the global sequence number, which makes concurrent emission from N
    domains merge deterministically.

    While logging is off (the default), {!emit} is a single atomic load
    and an integer compare, preserving the telemetry-off overhead
    budget.  Correlation fields ([trace_id], [job_id]) are passed as
    explicit [~fields] and promoted to top level in JSON.  Records render to JSON-lines (via {!Json_emit}, schema
    registered as {!Schemas.log}) or a human-readable line. *)

type level = Debug | Info | Warn | Error

val level_name : level -> string
val level_of_string : string -> level option

val set_level : level option -> unit
(** [None] turns logging off (the default unless the [POLYPROF_LOG]
    environment variable names a level). *)

val enabled : level -> bool

val env_var : string
(** ["POLYPROF_LOG"]: [debug]/[info]/[warn]/[error] enable that
    threshold at startup; unset, [0], [off], [false], [no] keep logging
    disabled. *)

(** {2 Records} *)

type record = {
  r_seq : int;  (** globally unique, monotone across all domains *)
  r_ts_ns : int;  (** {!Clock.now_ns} at emission *)
  r_domain : int;
  r_level : level;
  r_event : string;  (** dotted event name, e.g. ["serve.job.done"] *)
  r_msg : string;
  r_fields : (string * string) list;
}

(** {2 Emission} *)

val emit :
  level -> string -> ?fields:(string * string) list -> string -> unit

val logf :
  level ->
  string ->
  ?fields:(string * string) list ->
  ('a, unit, string, unit) format4 ->
  'a

val info :
  ?fields:(string * string) list ->
  string ->
  ('a, unit, string, unit) format4 ->
  'a

val warn :
  ?fields:(string * string) list ->
  string ->
  ('a, unit, string, unit) format4 ->
  'a

val error :
  ?fields:(string * string) list ->
  string ->
  ('a, unit, string, unit) format4 ->
  'a

(** {2 Collection} *)

val drain : unit -> record list
(** Drain every domain's ring and return the merged records sorted by
    sequence number.  Records emitted concurrently with the drain may
    land in the next drain; call at quiesce points for exact results. *)

val dropped : unit -> int
(** Total records lost to ring wraparound since the last {!reset}. *)

val reset : unit -> unit
(** Drop buffered records and forget foreign rings — test isolation. *)

(** {2 Sinks} *)

val to_json : record -> Json_emit.t
val to_jsonl : record -> string
(** One JSON object per record, single line; [trace_id]/[job_id] fields
    are promoted to top level, other fields nest under ["fields"]. *)

val to_human : record -> string

type sink = Human of out_channel | Jsonl of out_channel

val flush_to : sink list -> unit
(** Drain once and write every record to every sink (then flush the
    channels).  With no sinks the records are drained and discarded. *)

(** {2 Rings}

    The wraparound core, usable directly (and unit-tested) without the
    domain-local plumbing. *)

module Ring : sig
  type t

  val create : capacity:int -> t
  val push : t -> record -> unit
  val drain : t -> record list
  val dropped : t -> int
end
