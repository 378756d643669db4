(** Fixed-bucket log-scale histograms for service latencies.

    Every histogram shares one bucket layout (so any two merge exactly):
    bucket 0 holds values below {!lo}; the last bucket holds values at or
    above the top boundary; between them, four buckets per octave (bucket
    boundaries at [lo * 2^(i/4)]) cover [1 us .. ~50 min] when values are
    seconds. Alongside the buckets the exact count, sum, min and max are
    kept, so merged totals fold without loss and quantiles can clamp
    their bucket bounds to the true extremes.

    {!record} touches only arrays allocated up front — zero minor-heap
    allocation per sample, the same discipline as the telemetry ring
    (PR 5) — so a histogram can sit on the daemon's request path. *)

type t

val buckets : int
(** Number of buckets in the fixed layout. *)

val lo : float
(** Lower boundary of bucket 1 (values below land in bucket 0). *)

val create : unit -> t

val copy : t -> t
(** Snapshot; the original may keep recording. *)

val clear : t -> unit

val record : t -> float -> unit
(** Negative and NaN samples are recorded as 0. Allocation-free. *)

val count : t -> int
val sum : t -> float

val min_value : t -> float
(** Exact smallest recorded value; [0.] when empty. *)

val max_value : t -> float

val mean : t -> float
(** [sum / count]; [0.] when empty. *)

val bucket_count : t -> int -> int
(** Samples in bucket [i]. *)

val bucket_bounds : int -> float * float
(** [(lower, upper)] boundary of bucket [i]; bucket 0 starts at [0.],
    the last bucket ends at [infinity]. Every recorded value [v]
    satisfies [lower <= v < upper] for its bucket (the recorded-value-
    within-bounds property, qcheck-tested). *)

val merge : t -> t -> t
(** Exact: bucket counts and totals add, extremes combine. Commutative
    and associative on every integer component; sums are commutative
    exactly and associative up to float rounding. *)

val quantile : t -> float -> (float * float) option
(** [quantile t q] with [q] in [0, 1]: bounds [(lower, upper)] on the
    [ceil (q * count)]-th smallest sample, clamped to the exact
    min/max. [None] when empty. Monotone in [q] (both bounds). *)

val to_json : t -> Json.t
(** [{"count": n, "sum": s, "min": m, "max": M, "buckets": {"<i>":
    c, ...}}] with zero buckets omitted; round-trips exactly through
    {!decoder}. *)

val decoder : t Json.Decode.decoder

val equal : t -> t -> bool
(** Same observable state (count, sum, extremes, every bucket). *)
