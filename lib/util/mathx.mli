(** Small numeric helpers shared by the harness, the report layer and the
    tests. *)

val mean : float list -> float
(** Arithmetic mean. Raises [Invalid_argument] on the empty list. *)

val geomean : float list -> float
(** Geometric mean, the aggregate the paper uses for cross-workload
    speedups. All inputs must be strictly positive. *)

val ratio : float -> float -> float
(** [ratio a b] is [a /. b], raising [Invalid_argument] when [b = 0.]. *)

val percent : float -> float -> float
(** [percent part whole] is [100 *. part /. whole] ([0.] when [whole = 0.],
    which is convenient for empty counters). *)

val clamp : lo:float -> hi:float -> float -> float
(** Clamp a value into [\[lo, hi\]]. *)

val ilog2 : int -> int
(** [ilog2 n] is the floor of log2 [n] for [n >= 1]. *)

val ceil_pow2 : int -> int
(** Smallest power of two [>= n] (for [n >= 1]). *)

val ceil_div : int -> int -> int
(** [ceil_div a b] is the ceiling of [a / b] for positive [b]. *)
