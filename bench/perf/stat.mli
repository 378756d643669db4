(** Order statistics for benchmark samples. Every function takes the
    samples in any order and leaves the argument untouched. *)

val median : float array -> float
(** Raises [Invalid_argument] on an empty array (as do the others). *)

val quartiles : float array -> float * float * float
(** [(q1, q2, q3)] exactly as Python's [statistics.quantiles(xs, n=4)]
    computes them (the default "exclusive" method, indices clamped). One
    sample gives that sample three times. *)

val iqr : float array -> float
(** [q3 - q1]. *)

val spread : float array -> float
(** {!iqr} as a share of the median's magnitude ([0.] for a zero
    median) — the run-to-run noise a metric's bound is checked against. *)

val percentile : float array -> float -> float
(** [percentile xs p] (p in [0, 100]) is the nearest-rank percentile:
    the [ceil (p/100 * n)]-th smallest sample. *)

val beyond : n:int -> float -> int
(** Samples strictly above {!percentile}'s rank among [n]:
    [n - ceil (p/100 * n)]. *)

val tail_percentile : int -> float option
(** The highest of 99.9, 99, 95, 90, 75 and 50 that leaves at least ten
    of [n] samples beyond it — the tail a latency may be reported at
    with [n] samples. [None] below 20 samples. *)
