(** The static dependence engine, run once per workload for every front
    end: the non-speculative {!Analysis.Statdep.analyse}, and with
    [~prune] the validation of the instrumentation-pruning plan: the
    workload is profiled twice, without a plan and through the hybrid
    {!Analysis.Statdep.fallback_profile} driver, and the two profiles
    are compared with {!Ddg.Depprof.equal_result}.  [polyprof
    staticdep] prints the record and the bench aggregates it into
    [BENCH_staticdep.json]. *)

type prune = {
  dyn_mem_ops : int;  (** dynamic memory operations of the unpruned run *)
  pruned_dyn : int;  (** of which the pruned run kept out of shadow memory *)
  witnesses : int;  (** witness probes in the final speculative plan *)
  reruns : int;  (** witness-failure reruns of the hybrid driver *)
  equal : bool;  (** pruned profile [equal_result] the unpruned one *)
  full_s : float;  (** wall time of the unpruned profile *)
  pruned_s : float;  (** wall time of the hybrid driver, reruns included *)
}
(** What the two profiles showed.  The profiles themselves are not
    kept: a suite-wide sweep would otherwise hold two DDGs per
    workload. *)

type t = {
  name : string;
  sd : Analysis.Statdep.t;  (** non-speculative: a deterministic plan *)
  prune : prune option;  (** [Some] iff [run ~prune:true] *)
}

val run : ?prune:bool -> Workload.t -> t

val sound : t -> bool
(** The pruned profile equals the unpruned one (vacuously true without
    [~prune]). *)

val pruned_pct : prune -> float
(** Percentage of dynamic memory operations that skipped shadow
    tracking. *)

val to_json : t -> Obs.Json_emit.t
(** The [polyprof staticdep W [--prune] --json] object.  Deterministic:
    no timings. *)

val pp : Format.formatter -> t -> unit
(** Verbose report: the engine's findings, then the pruning verdict. *)

val table : t list -> string
(** Suite summary, one row per workload; the pruning columns appear
    when the first record carries a prune part. *)
