(** The out-of-core pipeline, run once per workload for every front end:
    record the event trace, time its encoding to a binary trace file
    and its decoding back, then profile the file both sequentially
    ({!Ddg.Depprof.profile_replay}) and domain-sharded
    ({!Stream.Par_profile.profile_file}) and compare the two results.
    [polyprof trace stats] prints the record and the bench aggregates
    it into [BENCH_stream.json]. *)

type t = {
  name : string;
  events : int;  (** events in the recorded trace *)
  n_control : int;
  n_exec : int;
  marshal_bytes : int;  (** the in-memory trace, [Marshal]led *)
  disk_bytes : int;  (** the binary trace file *)
  enc_s : float;  (** wall time of the encoding *)
  decoded : int;  (** events decoded back from the file *)
  dec_s : float;  (** wall time of the decoding *)
  seq_s : float;  (** wall time of the sequential replay *)
  par_s : float;  (** wall time of the sharded replay, merge included *)
  par : Stream.Par_profile.stats;
  stmts : int;  (** statements of the sharded profile *)
  deps : int;  (** its folded dependence relations *)
  dep_edges : int;  (** its dynamic dependence edges *)
  identical : bool;
      (** the sharded profile equals the sequential one: statements,
          dependences, edge counts and run statistics *)
}

val run : domains:int -> Workload.t -> t

val sound : t -> bool
(** The sharded profile equals the sequential one. *)

val to_json : t -> Obs.Json_emit.t
(** One workload row of [BENCH_stream.json]. *)

val pp : Format.formatter -> t -> unit
(** The [polyprof trace stats] report: codec counters, per-domain
    counters, the profile's size and the equality verdict. *)

val table : t list -> string
(** Suite summary, one row per workload. *)
