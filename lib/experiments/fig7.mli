(** Figure 7: dynamic warp instruction breakdown (MEM / COMPUTE / CTRL)
    normalized to SharedOA (paper: Concord +28 %, COAL +83 %, TP +19 %
    total instructions). *)

val points : Sweep.t -> Repro_report.Series.point list
(** Total normalized instructions per (workload, technique) + "AVG". *)

val series : Sweep.t -> Repro_report.Series.t
(** {!points} as the named total-instructions series. *)

val breakdown_series : Sweep.t -> Repro_report.Series.t
(** {!breakdown} flattened to points: group = workload, series =
    ["TECH:CLASS"] — the figure's full data for the export sinks. *)

val breakdown :
  Sweep.t ->
  (string * (string * (float * float * float)) list) list
(** Per workload, per technique: (mem, compute, ctrl), each normalized to
    that workload's SharedOA total. *)

val render : Sweep.t -> string
