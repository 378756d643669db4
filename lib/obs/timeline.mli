(** Windowed counter time series: the cycle-resolved companion of
    {!Profile}.

    Built from {!Repro_gpu.Device.window_timeline} (via the workload
    harness), a timeline holds one {!Repro_gpu.Stats.t} delta row per
    N-cycle window of every kernel launch. The rows are the very
    objects the replay loop counted into, so summing a launch's rows
    with [Stats.add] in order reproduces that launch's profile delta
    bit-for-bit — the windowed analogue of the {!Profile.consistent}
    invariant, checked by {!consistent}.

    Exactness of the time axis: sealed windows last exactly the window
    length (an integer, exact as a double) and the last window gets
    [cycles -. k*window], which is exact because the true remainder is
    representable; the in-order fold therefore reproduces the launch
    duration bit-for-bit, not merely approximately. *)

type kernel = {
  index : int;               (** Launch index. *)
  start : float;             (** Absolute start cycle (cumulative). *)
  windows : Repro_gpu.Stats.t array;  (** Per-window deltas, in order. *)
}

type t = {
  workload : string;
  technique : string;
  window : int;              (** Window length in cycles. *)
  kernels : kernel list;
}

val make :
  workload:string -> technique:string -> window:int ->
  kernel_windows:Repro_gpu.Stats.t array list -> t
(** [kernel_windows] in launch order, as the harness snapshots them.
    Raises [Invalid_argument] when [window <= 0]. *)

val n_windows : t -> int

val consistent : t -> profile:Profile.t -> (unit, string) result
(** Per kernel, fold the windows and compare every {!Metric.counters}
    value with the profile's kernel delta; then fold those kernel sums
    and compare with the profile total. All comparisons are exact
    (floats bit-for-bit). [Error] names the kernel and metrics on a
    mismatch, or reports a launch-count disagreement. *)

val windows : t -> (float * Repro_gpu.Stats.t) list
(** Every window across all kernels in time order, with its absolute
    start cycle. *)

val rates : (string * string * (Repro_gpu.Stats.t -> float)) list
(** The four rates derived for every window, as (id, description, value
    of a row): IPC, L1 and L2 hit rate, DRAM sectors per cycle. Both
    {!series} and the counter tracks of [Tracer.to_json] read them. *)

val series : t -> Repro_report.Series.t list
(** Derived per-window rates, one series per quantity: IPC, L1/L2 hit
    rate, DRAM sectors per cycle, and the stall share of every label
    that stalled at all during the run. Points are grouped by the
    window's absolute start cycle, so the existing Sink JSON/CSV path
    exports them unchanged. *)

val to_json : t -> Json.t
(** [{workload, technique, window, kernels: [{launch, start, windows:
    [{start, cycles, metrics}]}]}] with the additive
    {!Metric.counters} per window. *)

val render : t -> string
(** Text sparklines: one row per derived quantity over the whole run,
    then a per-kernel IPC drilldown (one sparkline per launch). *)
