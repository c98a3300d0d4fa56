(** Exact rational linear programming (two-phase primal simplex with
    Bland's rule, so termination is guaranteed).

    The one engine behind {!Polyhedron.is_empty}, {!Polyhedron.bounds}
    and {!Polyhedron.entails} in every dimension.  It works on a bare
    constraint list so that [Polyhedron] can be built on top of it.
    Every function raises [Rat.Overflow] when a pivot leaves native
    rational range; {!Polyhedron} turns that into conservative answers,
    direct callers see the exception. *)

module Rat = Pp_util.Rat

type result =
  | Opt of Rat.t  (** finite optimum *)
  | Unbounded
  | Infeasible

val maximize : Constr.t list -> Affine.t -> result
(** Maximum of the affine objective over the rational points satisfying
    every constraint.  The objective's dimension is the space's; every
    constraint must have it. *)

val minimize : Constr.t list -> Affine.t -> result

val bounds : Constr.t list -> Affine.t -> (Rat.t option * Rat.t option) option
(** [Some (min, max)], with [None] on an unbounded side, or [None] when
    the constraints are infeasible.  Phase 1 runs once; both directions are
    optimised from copies of the feasible dictionary. *)

val feasible : int -> Constr.t list -> bool
(** [feasible dim cons]: rational feasibility via phase 1 alone — exact
    emptiness of the rational relaxation. *)
