(** Registry of every machine-readable report schema the tree emits.

    Each [BENCH_*.json] / [--json] emitter stamps its output with a
    [schema_version] through {!Json_emit.schema_header}; this module is
    the single place those version numbers live, so [polyprof version]
    and the daemon's [/version] endpoint can report them and clients/CI
    can check daemon/schema compatibility without parsing any report. *)

type t = {
  s_name : string;  (** emitter name, e.g. ["stream"] *)
  s_file : string;  (** the artifact it writes, e.g. ["BENCH_stream.json"] *)
  s_version : int;
}

val stream : int
val staticdep : int
val obs : int
val autotune : int
val overhead : int
val parcheck : int
val serve : int

val layers : int
(** [BENCH_layers.json]: per-layer ns and minor words per operation. *)

val perfhist : int
(** [bench/history/*.jsonl] perf-history lines ({!Perfhist}). *)

val log : int
(** JSON-lines log records ({!Log.to_jsonl}). *)

val all : t list
(** Every emitter, sorted by name. *)
