(** Figure 11: TypePointer applied to the *default CUDA allocator* in
    simulation (hardware MMU; paper GM: +18 % over CUDA without changing
    how objects are allocated). *)

val columns : Sweep.column list
(** CUDA, TP over the CUDA allocator, and CUDA dispatch over the
    DynaSOAr SoA family. *)

val points : Sweep.t -> Repro_report.Series.point list
(** Per workload of a sweep over {!columns}: each column's performance
    normalized to "CUDA" (1.0), plus the GM row. *)

val series : Sweep.t -> Repro_report.Series.t
(** {!points} with the figure's name/title/aggregate attached. *)
