(** Shadow memory and shadow registers for dependence tracking (§9,
    "shadow memory records a piece of information for each storage
    location — for dependency tracking, the last dynamic instruction
    that modified that location"). *)

type origin = {
  o_sid : Vm.Isa.Sid.t;
  o_ctx : int;  (** interned context id of the producer *)
  o_coords : int array;  (** producer iteration vector *)
}

type t

val create : unit -> t

(** Memory shadow: word-addressed. *)

val write_mem : t -> addr:int -> origin -> unit
val last_mem_writer : t -> addr:int -> origin option

(** Register shadow, with one scope per call frame. *)

val push_frame : t -> unit
val pop_frame : t -> unit
val write_reg : t -> reg:int -> origin -> unit
val last_reg_writer : t -> reg:int -> origin option
val n_shadowed_words : t -> int
