(** The one workload namespace every front end resolves names in: the
    CLI's [BENCH] arguments, [polyprof list], the serve daemon's job
    specs, and the suite-wide sweeps of the CLI and the bench. *)

val suite : Workload.t list
(** The profiled suite: mini-Rodinia in Table 5 order, [gems_fdtd], then
    the PolyBench kernels. *)

val all : Workload.t list
(** {!suite} plus the seeded parallelism-certifier variants
    ([par_racy], [par_reduction], [par_private]): every resolvable
    workload. *)

val names : string list
(** The names of {!all}, in order. *)

val find : string -> (Workload.t, string) result
(** Look a workload of {!all} up by name; the error names every
    resolvable workload. *)
