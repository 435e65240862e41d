(** Integer arithmetic helpers for period/hyperperiod computation. *)

val gcd : int -> int -> int
(** Greatest common divisor of non-negative arguments. *)

val lcm : int -> int -> int
(** Least common multiple.  @raise Failure when the result would
    overflow [max_int] — hyperperiods that large indicate a broken
    period set.  The check is exact: every representable LCM is
    returned, including [lcm 1 max_int]. *)

val lcm_list : int list -> int
(** LCM of a non-empty list of positive periods. *)

val ceil_div : int -> int -> int
(** [ceil_div a b] is the smallest [k] with [k * b >= a], for [b > 0]. *)

val clamp : lo:int -> hi:int -> int -> int
