(** Exact rational arithmetic over native integers.

    All values are kept in canonical form: the denominator is strictly
    positive and numerator and denominator are coprime.  Native [int]
    (63-bit) precision is sufficient for the small coefficients occurring
    in folded dependence polyhedra; every operation raises [Overflow]
    instead of wrapping: products, sums, and negations of [min_int]. *)

type t = private { num : int; den : int }

exception Overflow
exception Division_by_zero

val mul_checked : int -> int -> int
(** Native product that raises [Overflow] instead of wrapping.  On
    integers, [mul] and [add] reduce to exactly these two checks, so
    integer-only callers can compute without boxing and still raise
    [Overflow] at the same operations. *)

val add_checked : int -> int -> int
(** Native sum that raises [Overflow] instead of wrapping. *)

val make : int -> int -> t
(** [make num den] is the canonical rational [num/den].
    @raise Division_by_zero if [den = 0]. *)

val of_int : int -> t

val zero : t
val one : t
val minus_one : t

val num : t -> int
val den : t -> int

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t
val inv : t -> t
val abs : t -> t
val min : t -> t -> t
val max : t -> t -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val is_zero : t -> bool
val is_integer : t -> bool

val floor : t -> int
(** Largest integer [<= t]. *)

val ceil : t -> int
(** Smallest integer [>= t]. *)

val to_int_exn : t -> int
(** @raise Invalid_argument if the value is not an integer. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val gcd : int -> int -> int
(** Non-negative greatest common divisor; [gcd 0 0 = 0]. *)

val lcm : int -> int -> int
