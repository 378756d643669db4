(** Figure 12: the Sec. 8.3 scalability study on high-PKI
    microbenchmarks, everything normalized to the BRANCH ideal.

    (a) object scaling at 4 types (paper, at 32 M objects: CUDA 5.6×,
    COAL 3.3×, TypePointer 2.0× the BRANCH time; our sweep uses scaled
    counts); (b) type scaling at a fixed object count — divergence grows,
    the techniques converge. *)

type point = {
  variant : string;       (** BRANCH / CUDA / COAL / TP. *)
  n_objects : int;
  n_types : int;
  cycles : float;
  norm_time : float;      (** Relative to BRANCH at the sweep's origin. *)
}

val object_counts : int list
(** Default object sweep (32 K → 1 M, standing in for 1 M → 32 M). *)

val type_counts : int list
(** 1 → 32, as in the paper. *)

val run_object_sweep : ?scale:float -> ?j:int -> unit -> point list
(** Fig. 12a: [n_types = 4]; norm_time is relative to BRANCH at the
    smallest object count (the paper's normalization). [j] bounds the
    worker domains ({!Repro_exec.Pool}); the point order — and so the
    normalization base — is identical at any [j]. *)

val run_type_sweep : ?scale:float -> ?j:int -> unit -> point list
(** Fig. 12b: fixed object count (half the sweep maximum), types 1–32;
    norm_time relative to BRANCH at 1 type. *)

val sweep_for_test : configs:(int * int) list -> point list
(** Arbitrary (objects, types) grid; first config's BRANCH run is the
    normalization base. Exposed for the integration tests. *)

val object_series : point list -> Repro_report.Series.t
(** 12a as a series: group = object count, series = variant, value =
    normalized time. *)

val type_series : point list -> Repro_report.Series.t
(** 12b likewise over type counts. *)
