(** Figure 11: TypePointer applied to the *default CUDA allocator* in
    simulation (hardware MMU; paper GM: +18 % over CUDA without changing
    how objects are allocated). *)

val points :
  ?scale:float -> ?j:int -> ?cache:bool -> ?cache_dir:string ->
  ?workloads:Repro_workloads.Workload.t list -> unit ->
  Repro_report.Series.point list
(** Per workload: "CUDA" (1.0) and "TP/CUDA" normalized performance,
    plus the GM row. *)

val series : Repro_report.Series.point list -> Repro_report.Series.t
(** {!points} with the figure's name/title/aggregate attached. *)
