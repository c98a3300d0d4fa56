(** A map from non-negative [int] keys to [int] values by open
    addressing.  Lookups and updates of present keys allocate nothing,
    which is what the profiler's per-event interning (statement,
    dependence and context ids) needs; OCaml's [Hashtbl] boxes every
    [find_opt] result. *)

type t

val create : int -> t
(** [create n]: room for about [n] keys before the first resize. *)

val find : t -> int -> int
(** [find t key]: the value bound to [key], or [-1] when there is
    none.  [key] must be non-negative. *)

val add : t -> int -> int -> unit
(** [add t key v] binds [key] (non-negative, not yet bound) to [v].
    @raise Invalid_argument on a negative key. *)

val length : t -> int
