(** Figure 6: kernel performance of CUDA, Concord, COAL and TypePointer
    normalized to SharedOA, per workload plus the geometric mean
    (paper: GM 0.59 / 0.72 / 1.00 / 1.06 / 1.12). *)

val points : Sweep.t -> Repro_report.Series.point list
(** Normalized performance (higher is better), including the "GM" row. *)

val series : Sweep.t -> Repro_report.Series.t
(** {!points} with the figure's name/title/aggregate attached — the one
    value both the text table and the JSON/CSV sinks consume. *)
