(** Build-and-measure driver: runs one workload under one technique and
    collects everything the figures need.

    Setup (allocation, initialization) is untimed; counters are reset at
    the measurement boundary, then all compute iterations run, exactly as
    the paper reports kernel time excluding initialization.

    The iterations, the heap checksum and the workload result run inside
    a {!Repro_util.Pool.Helper.scope}: when the process has a core to
    spare, each launch replays on a helper domain while the next warps
    are emitted (see {!Repro_gpu.Device}). The counters are read after
    the scope has drained and joined its helper, and equal an inline
    run's bit for bit. *)

type run = {
  workload : string;          (** Qualified name. *)
  technique : Repro_core.Technique.t;
  alloc : Repro_core.Alloc_family.t;
      (** Allocator family the run used (the technique's default unless
          overridden via [params.alloc]). *)
  cycles : float;
  stats : Repro_gpu.Stats.t;  (** Snapshot, detached from the device. *)
  kernel_stats : Repro_gpu.Stats.t list;
  (** Per-kernel-launch counter deltas inside the measured region, in
      launch order. Accumulating them with [Stats.add] into a fresh
      [Stats.t] reproduces [stats] exactly (float fields bit-for-bit),
      which [Repro_obs.Profile.consistent] checks. *)
  window : int option;
  (** Sampling window in cycles when the run's params enabled it. *)
  kernel_windows : Repro_gpu.Stats.t array list;
  (** Per-launch window rows (snapshots) when windowed sampling was on;
      folding a launch's rows reproduces its [kernel_stats] delta
      exactly (see {!Repro_gpu.Device.window_timeline}). Empty
      otherwise. *)
  trace : Repro_gpu.Telemetry.dump option;
  (** Event-ring snapshot when tracing was on. *)
  checksum : int;             (** Heap checksum (cross-technique equal). *)
  result : int;               (** Workload-level result (ditto). *)
  n_objects : int;
  n_types : int;
  n_vfuncs : int;             (** Total vtable slots. *)
  vfunc_pki : float;
  warp_vcalls : int;
  alloc_stats : Repro_core.Allocator.stats;
}

val run : Workload.t -> Workload.params -> run

val validate_equal : run list -> unit
(** The paper's functional validation: every run of one workload must
    agree with the first on [checksum] and [result], whatever its
    technique or allocator. Raises [Failure] naming the offending pair.
    [Repro_experiments.Sweep.exec] applies it to every workload it runs. *)

val speedup_vs : baseline:run -> run -> float
(** [cycles baseline / cycles run]: >1 means faster than baseline. *)

val normalized_cycles : baseline:run -> run -> float
(** [cycles run / cycles baseline]: normalized runtime, >1 means slower
    than baseline. The inverse view of {!speedup_vs}. *)
