(** Shadow memory and shadow registers for dependence tracking (§9,
    "shadow memory records a piece of information for each storage
    location — for dependency tracking, the last dynamic instruction
    that modified that location").

    A tracked location holds its last writer as a {e producer id} — a
    non-negative int of the caller's choosing (the profiler's dense
    statement id) — and the producer's iteration vector, kept without
    copying.  Memory is paged: flat arrays of 1024 words indexed by
    address, found through a page directory (a table holds the pages of
    negative or very large addresses).  Registers are one array per
    call frame, indexed by register number.  Reads and writes allocate
    nothing once the page or frame slot exists. *)

type t

val create : unit -> t

(** {2 Memory shadow: word-addressed} *)

val mem_writer : t -> addr:int -> int
(** Producer id of the last write to [addr], or [-1]. *)

val mem_writer_coords : t -> addr:int -> int array
(** Iteration vector of that write; meaningful only when
    {!mem_writer} is not [-1]. *)

val set_mem : t -> addr:int -> id:int -> int array -> unit

val n_shadowed_words : t -> int
(** Distinct addresses written so far. *)

(** {2 Register shadow, with one scope per call frame} *)

val push_frame : t -> unit
val pop_frame : t -> unit
val reg_writer : t -> reg:int -> int
val reg_writer_coords : t -> reg:int -> int array
val set_reg : t -> reg:int -> id:int -> int array -> unit

(** {2 Origin view}

    The same shadow read and written as records; the producer id packs
    the context and the sid. *)

type origin = {
  o_sid : Vm.Isa.Sid.t;
  o_ctx : int;  (** interned context id of the producer *)
  o_coords : int array;  (** producer iteration vector *)
}

val write_mem : t -> addr:int -> origin -> unit
val last_mem_writer : t -> addr:int -> origin option
val write_reg : t -> reg:int -> origin -> unit
val last_reg_writer : t -> reg:int -> origin option
