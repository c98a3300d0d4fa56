(** The parallelism-certifier pipeline, run once per workload for every
    front end: {!Analysis.Parcheck.analyse}, one run under the dynamic
    race sanitizer, and the static/dynamic cross-check.  [polyprof
    parcheck] prints the record, the bench aggregates it into
    [BENCH_parcheck.json], and the serve daemon's [parcheck] job embeds
    its {!to_json}.  Each front applies its own soundness policy to
    {!sound}. *)

type t = {
  name : string;
  pc : Analysis.Parcheck.t;
  san : Ddg.Race_san.report option;  (** [None] with [~static_only] *)
  diags : Analysis.Diag.t list option;
      (** cross-check diagnostics; [None] with [~static_only] *)
  static_s : float;  (** wall time of the static analysis *)
  san_s : float;  (** wall time of the sanitizer run (0 if skipped) *)
}

val run : ?static_only:bool -> Workload.t -> t
(** [static_only] skips the sanitizer run and with it the cross-check. *)

val sound : t -> bool
(** The cross-check found no [E-parcheck-unsound] (vacuously true with
    [~static_only]). *)

val to_json : t -> Obs.Json_emit.t
(** The [polyprof parcheck W --json] object: per-dimension verdicts
    ([loc], reason or witness counts), sanitizer claims and
    diagnostics.  Deterministic: no timings. *)

val pp : Format.formatter -> t -> unit
(** Verbose report: verdicts, sanitizer report, diagnostics. *)

val table : t list -> string
(** Suite summary, one row per workload; the sanitizer columns are
    dropped when every record is static-only. *)
