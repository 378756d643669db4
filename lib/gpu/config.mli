(** Machine description for the simulated GPU.

    The default is a scaled-down NVIDIA V100: the per-SM resources (warp
    size, residency, issue width, L1) match Volta, while the SM count and
    the L2 are shrunk in proportion to the scaled-down workloads so that
    the working-set-to-cache ratios — the property the paper's results
    hinge on — are preserved. Latencies are in core cycles; throughputs in
    units per cycle. *)

type t = {
  warp_size : int;              (** Lanes per warp (32). *)
  n_sms : int;                  (** Streaming multiprocessors. *)
  max_warps_per_sm : int;       (** Resident-warp limit (occupancy). *)
  issue_width : int;            (** Warp instructions issued per SM cycle. *)
  compute_latency : int;        (** ALU dependency latency. *)
  ctrl_latency : int;           (** Branch/SIMT-stack latency. *)
  const_latency : int;          (** Constant-cache hit latency. *)
  call_indirect_latency : int;  (** Extra latency of an indirect branch. *)
  call_direct_latency : int;
  l1_geometry : Cache.geometry; (** Per-SM L1 (flushed at kernel launch). *)
  l1_latency : int;
  l1_sector_throughput : float; (** Sectors serviced per cycle per SM. *)
  lsu_throughput : float;       (** Warp mem instructions accepted/cycle/SM. *)
  l2_geometry : Cache.geometry; (** Device-wide L2. *)
  l2_latency : int;
  l2_sector_throughput : float; (** Sectors per cycle, whole device. *)
  dram_latency : int;
  dram_sector_throughput : float; (** Sectors per cycle, whole device. *)
}

val default : t
(** The scaled V100 described above. *)

val v100_like : t
(** A fuller-size configuration (80 SMs, 6 MB L2) for users who run
    paper-scale object counts; slower to simulate. *)

val validate : t -> unit
(** Raises [Invalid_argument] when a field is non-positive or the warp
    size is not a multiple of the sector/word ratio assumptions. *)

val pp : Format.formatter -> t -> unit
