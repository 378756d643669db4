(** The Sec. 8.2 initialization comparison: SharedOA performs host-side
    bump allocation into typed regions, while allocating objects with
    virtual functions on the device serializes on the CUDA heap —
    the paper measures SharedOA 80× faster (geomean) over the apps.
    The DynaSOAr-SoA family rides along as a third column: cheaper than
    the device heap but paying its bitmap scans. *)

type row = {
  workload : string;
  objects : int;
  cuda_cycles : float;
  shared_oa_cycles : float;
  dyna_cycles : float;
  speedup : float;       (** SharedOA vs device-side new. *)
  dyna_speedup : float;  (** DynaSOAr-SoA vs device-side new. *)
}

val columns : Sweep.column list
(** CUDA, SharedOA, and CUDA dispatch over the DynaSOAr SoA family. *)

val rows : Sweep.t -> row list
(** One row per workload of a sweep over {!columns}, in sweep order.
    {!Sweep.exec} has already checked that the three columns agree
    functionally. *)

val geomean_speedup : row list -> float

val series : row list -> Repro_report.Series.t
(** The ["SHARD"] and ["DYNA"] speedups, with a ["GM"] row. *)

val render : row list -> string
