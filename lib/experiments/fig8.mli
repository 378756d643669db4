(** Figure 8: global load transactions normalized to SharedOA (paper GM:
    CUDA 1.00, Concord 0.82, COAL 0.86, TypePointer 0.81). *)

val points : Sweep.t -> Repro_report.Series.point list

val series : Sweep.t -> Repro_report.Series.t
(** {!points} with the figure's name/title/aggregate attached. *)
