(** Figure 9: L1 cache hit rate per workload and technique (paper
    averages: CUDA 31 %, Concord 31 %, SharedOA 44 %, COAL 47 %,
    TypePointer 45 %). *)

val points : Sweep.t -> Repro_report.Series.point list
(** Hit rates in [0,1], plus an "AVG" arithmetic-mean row. *)

val series : Sweep.t -> Repro_report.Series.t
(** {!points} with the figure's name/title/aggregate attached. *)
