(** Figure 10: sensitivity to SharedOA's initial chunk size.

    (a) COAL performance normalized to CUDA as the initial region size
    sweeps from small to large (paper: 4 K → 4 M objects, stable except
    GEN's jump); (b) SharedOA external fragmentation over the same sweep
    (paper: 17 % → 27 %, growing with chunk size). Our sweep uses the
    same 4× steps over scaled counts. *)

val chunk_sizes : int list
(** The swept initial chunk sizes, in objects (4x steps, scaled
    counterparts of the paper's 4K–4M). *)

type point = {
  workload : string;
  chunk_objs : int;
  perf_vs_cuda : float;       (** COAL cycles⁻¹ relative to CUDA. *)
  fragmentation : float;      (** SharedOA external fragmentation, [0,1]. *)
}

val columns : Sweep.column list
(** CUDA, then COAL at each of {!chunk_sizes}. *)

val points : Sweep.t -> point list
(** Workload-major, chunk sizes ascending, from a sweep over
    {!columns}. *)

val series_perf : point list -> Repro_report.Series.t
(** 10a as a series: group = workload, series = chunk-size label. *)

val series_frag : point list -> Repro_report.Series.t
(** 10b likewise, with an "AVG" mean row appended. *)
