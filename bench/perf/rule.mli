(** The rule for comparing a parent commit with a change, one
    (metric, workload) row at a time. Run [i] of the parent and run [i]
    of the change form pair [i]; the runs of a pair are made back to
    back, alternating which side goes first. *)

type verdict =
  | Gain  (** The change wins at least 9 of every 10 pairs (ties count
              for neither side) and its median is better than the
              parent's by more than the parent's IQR. *)
  | Regression
      (** The change's median is worse than the parent's by more than
          the metric's bound (a share of the parent's median). *)
  | Unresolved
      (** One side's spread ({!Stat.spread}) is wider than the bound, so
          the row can neither pass nor fail — unless every run of the
          change beats every run of the parent. *)
  | Unchanged
  | Worse
      (** The mirror image of [Gain], on a metric without a bound or
          within the bound: reported, never a failure. A consistent loss
          smaller than a loose bound still shows. *)

val verdict_name : verdict -> string

val min_pairs : int
(** 10: fewer pairs cannot show a 9-in-10 win. *)

val wins :
  Metrics.better -> parent:float array -> change:float array -> int * int * int
(** [(won, lost, pairs)] for the change, pairing by index. *)

val judge :
  Metrics.better -> bound:float option -> parent:float array ->
  change:float array -> verdict
(** A gain is checked first; then, with a bound, [Unresolved] before
    [Regression]. Raises [Invalid_argument] when a side is empty. *)
