(** Convex integer polyhedra represented as conjunctions of affine
    constraints, with the operations needed by the folding and feedback
    stages.

    Emptiness, entailment and bounds are computed over the rational
    relaxation, in every dimension, by the exact simplex of {!Lp}.  Sets
    produced by folding are constructed from actual integer points, so
    the relaxation is exact for them.

    {b Overflow policy.}  When the simplex leaves native rational range
    ([Rat.Overflow]), {!is_empty} answers [false], {!bounds} answers
    [(None, None)] and {!entails} answers [false].  These answers are
    conservative for every caller (a dependence direction becomes
    unknown, fusion is not legal, a verifier reports a violation, a set
    is not a subset), so no caller needs to catch the exception. *)

module Rat = Pp_util.Rat

type t

val make : int -> Constr.t list -> t
(** [make dim cons]; all constraints must have dimension [dim]. *)

val universe : int -> t
val empty : int -> t
val dim : t -> int
val constraints : t -> Constr.t list

val mem : t -> int array -> bool
val add_constraint : t -> Constr.t -> t
val intersect : t -> t -> t

val is_empty : t -> bool
val is_universe : t -> bool

val bounds : t -> Affine.t -> Rat.t option * Rat.t option
(** Min and max of the affine expression over the polyhedron ([None] if
    unbounded in that direction).  Returns [(None, None)] by convention
    on an empty polyhedron — use {!is_empty} first if it matters. *)

val dim_bounds : t -> int -> Rat.t option * Rat.t option
val entails : t -> Constr.t -> bool
val is_subset : t -> t -> bool
val equal_set : t -> t -> bool

val sample : t -> int array option
(** Some integer point of the polyhedron, if one can be found by bounded
    recursive descent (requires the rational relaxation to be bounded in
    every dimension that matters). *)

val integer_points : ?max_points:int -> t -> int array list
(** Enumerate all integer points; raises [Failure] if the polyhedron is
    unbounded or holds more than [max_points] (default 1_000_000). *)

val count : ?max_points:int -> t -> int
(** Number of integer points (by enumeration, same limits as
    {!integer_points}). *)

val translate : t -> int array -> t
(** [translate p v] is [{ x + v | x in p }]. *)

val pp : ?names:string array -> Format.formatter -> t -> unit
val to_string : ?names:string array -> t -> string
