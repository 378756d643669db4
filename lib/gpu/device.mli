(** The whole simulated GPU: launch kernels, accumulate statistics.

    A launch proceeds in two phases. Phase 1 (functional) partitions the
    grid into warps and runs the kernel body once per warp through
    {!Warp_ctx}, mutating the simulated heap and recording instruction
    traces — values never depend on timing, so traces are exact. Phase 2
    ({!Sm.run}) replays the traces through the timing model. Kernels must
    be data-race-free across warps within a launch (the usual CUDA
    contract); phase 1 executes warps in grid order.

    Phase 2 never touches the heap, so the two phases can run at once.
    Inside a {!Repro_util.Pool.Helper.scope} with a core to spare, a
    launch queues its replay on the scope's helper domain before its
    first warp is emitted; each sealed warp is then handed over as it is
    published, and the caller goes on to the next launch. Replays run in
    launch order through the same {!Sm.run}, so every counter, timeline,
    window row and ring event is bit-identical to the inline schedule,
    which is what a launch outside a scope (or with no spare core) does.
    At most two launches are in flight: one replaying, one being
    emitted. The readers of replay state ({!stats}, {!kernel_timeline},
    {!window_timeline}, {!telemetry_dump}, {!launches}) and the writers
    ({!reset_stats}, {!set_vm}) first wait for queued replays. *)

type t

val create :
  ?config:Config.t -> ?san:Repro_san.Checker.t ->
  ?telemetry:Telemetry.config ->
  heap:Repro_mem.Page_store.t -> unit -> t
(** When [san] is given, every launch threads it through the warp
    contexts and folds the checker's per-launch violation delta into that
    launch's counters (so the timeline invariant below still holds).

    Phase 1 emits every warp through one reusable scratch trace and
    hash-conses identical instruction streams per launch. Phase 2 replays
    with {!Sm.run}, translated or not, with telemetry or without.

    [telemetry] opts into cycle-resolved instrumentation, allocated once
    here: windowed counter sampling ({!window_timeline}) and/or the
    event ring behind {!telemetry_dump}. A disabled config (the
    default, or {!Telemetry.off}) leaves the replay path untouched. *)

val config : t -> Config.t

val interning_tallies : t -> int * int * int * int
(** [(sealed, unique, sealed_instrs, unique_instrs)] — warp instruction
    streams sealed through the interning pools since the last
    {!reset_stats}, how many were distinct, and the dynamic warp
    instructions behind each. All zero before the first launch. *)

val dedup_ratio : t -> float
(** [sealed /. unique] streams ([1.] before any launch) — the
    interning compression factor. *)

val heap : t -> Repro_mem.Page_store.t

val set_vm : t -> Repro_vm.Vm.t option -> unit
(** Attach (or detach) an address-translation model; see
    [Mem_path.set_vm]. The runtime rebuilds and re-attaches the model
    when the heap layout changes between launches. Waits for queued
    replays first, so the swap reaches only later launches. *)

val vm : t -> Repro_vm.Vm.t option

val launch : t -> n_threads:int -> (Warp_ctx.t -> unit) -> unit
(** Run a kernel over a 1-D grid of [n_threads] threads (the last warp may
    be partial). Raises [Invalid_argument] when [n_threads <= 0]. The
    heap is updated when [launch] returns; the launch's counters may
    still be replaying on a helper (see above). A kernel exception
    propagates after the helper's replay of this launch is abandoned;
    the device's timing state is then undefined, so an exception should
    end its use (it ends the enclosing [Harness.run]). An exception
    inside a helper's replay is re-raised at the next read. *)

val stats : t -> Stats.t
(** Counters accumulated since creation or the last {!reset_stats},
    including total cycles across launches. *)

val kernel_timeline : t -> Stats.t list
(** One counter snapshot per kernel launch since creation or the last
    {!reset_stats}, in launch order — the simulator analogue of an NVProf
    timeline. Each entry holds only that launch's contribution (its
    [cycles] is the launch duration); accumulating the entries in order
    reproduces {!stats} exactly, float counters included. *)

val window_timeline : t -> Stats.t array list
(** When windowed sampling is on: one array of per-window counter rows
    per launch (in launch order; windows in time order). Folding a
    launch's rows with [Stats.add] reproduces that launch's
    {!kernel_timeline} delta exactly — float counters included — and the
    rows' [cycles] sum to the launch duration bit-for-bit. Empty unless
    the device was created with a sampling [telemetry] config. *)

val sample_window : t -> int option
(** The sampling window in cycles, when windowed sampling is on. *)

val telemetry_dump : t -> Telemetry.dump option
(** Snapshot of the event ring (plus per-launch kernel spans on the
    cumulative time axis), when tracing is on. Rendered to Chrome
    trace-event JSON by [Repro_obs.Tracer]. *)

val reset_stats : t -> unit
(** Also resets the persistent L2 tag state, so timed regions start
    cold and runs are order-independent. Clears the kernel timeline,
    the window timeline and the event ring. *)

val launches : t -> int
(** Number of kernel launches since the last reset. *)

val retain_traces : t -> bool -> unit
(** When enabled, every subsequent launch's per-warp traces are kept (in
    launch order) for offline replay — the hook [bench/sim_bench.exe]
    uses to re-time real workload traces without re-running the
    functional phase. Disabling drops anything retained. Off by
    default; retention costs memory proportional to the traces. *)

val retained_traces : t -> Trace.t array list
(** Retained launches in launch order (empty unless {!retain_traces} is
    on). Cleared by {!reset_stats}. *)
