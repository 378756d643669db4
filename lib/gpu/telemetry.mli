(** Cycle-resolved telemetry: windowed counter sampling and the GPU's
    vocabulary for the event ring behind the Chrome-trace exporter.

    Both features are opt-in and sized up front so the replay loop keeps
    its allocation discipline:

    - The {!Sampler} slices a launch into fixed windows of N cycles.
      Each window owns a fresh {!Stats.t} row that the engine counts
      into directly, so folding the rows with [Stats.add] in order
      reproduces the launch totals bit-for-bit (the same association of
      additions the device performs) — no delta subtraction, no float
      drift. Rows are recycled across launches until {!Sampler.take}
      detaches them; enabling sampling costs one row per window, never
      an allocation per instruction.

    - The ring is a {!Repro_util.Event_ring} of typed events (warp stall
      intervals by {!Label}, cache and DRAM transactions, TLB walks, all
      with absolute timestamps in cycles), tagged with the kinds below.
      The engine writes its fields directly, so recording never boxes or
      allocates; a full ring drops the oldest event and counts it
      (surfaced as the [trace.dropped] metric). [Repro_obs.Tracer]
      renders a {!dump} of it as Chrome trace-event JSON.

    This module is deliberately engine-agnostic: [Sm]/[Device] hold the
    hooks; nothing here calls back into them. *)

(** {2 Event kinds} — [arg_a]/[arg_b] meaning depends on the kind. *)

val kind_stall : int
(** A warp stall interval: [track] = SM, [arg_a] = label index,
    [arg_b] = warp id; [dur] = attributed stall cycles. *)

val kind_l1 : int
(** One L1 sector access: [track] = SM, [arg_a] = 1 on hit else 0,
    [arg_b] = sector. *)

val kind_l2 : int
(** One L2 sector access: [arg_a] bit 0 = hit, bit 1 = store,
    [arg_b] = sector. *)

val kind_dram : int
(** A DRAM transaction: [arg_a] = sectors consumed (2 for a load's
    64 B pair fill, 1 for a write-through store miss), [arg_b] =
    sector. *)

val kind_tlb : int
(** A TLB page-walk interval: [track] = SM, [arg_a] = radix levels
    walked, [arg_b] = sector; [dur] = walk cycles charged. TLB hits
    are not recorded (they are counted in [Stats]). *)

type config = {
  window : int option;
  (** Sampling window in cycles; [None] disables windowed sampling. *)
  trace : bool;  (** Record events into the ring. *)
  trace_capacity : int;
  (** Ring size in events (allocated once at configure time). *)
}

val default_window : int
(** 1024 cycles — fine enough to see warm-up and wave boundaries at the
    default scale, coarse enough that a run stays at tens of windows. *)

val default_capacity : int
(** 65536 events (six flat arrays; about 3 MB). *)

val off : config

val config_enabled : config -> bool
(** Whether the configuration turns anything on. *)

module Sampler : sig
  type t

  val create : window:int -> t
  (** Raises [Invalid_argument] when [window <= 0]. *)

  val window : t -> int

  val boundary_cell : t -> float array
  (** One-slot mailbox holding the current window's end time. The replay
      loop compares each event time against [cell.(0)] inline (a float
      array read never boxes) and calls {!advance} only on the rare
      crossing. *)

  val begin_launch : t -> unit
  (** Rewind to window 0 of a new launch (launches are timed from 0). *)

  val advance : t -> now:float -> unit
  (** Seal windows until [now] falls inside the current one (empty
      windows get zero rows), starting a fresh row for each. Cold path:
      called at most once per window boundary. *)

  val current : t -> Stats.t
  (** The open window's row; counting calls target it directly.
      Re-fetch after every {!advance}. *)

  val finish_launch : t -> cycles:float -> unit
  (** Assign each row its duration: every sealed window gets the full
      window length, the open one gets the remainder. The assignments
      are constructed so that summing the rows' [cycles] in order
      reproduces [cycles] exactly (see the exactness note in
      [timeline.mli]). *)

  val rows : t -> int
  (** Rows in use for the current launch (>= 1 after {!begin_launch}). *)

  val take : t -> Stats.t array
  (** Detach the launch's rows, in window order, replacing them with
      fresh zero rows. Call after {!finish_launch}. *)
end

type t = {
  config : config;
  sampler : Sampler.t option;
  ring : Repro_util.Event_ring.t option;
}

val create : config -> t

(** {2 Dump} — the detached, render-ready view [Repro_obs.Tracer]
    consumes. *)

type kernel_span = {
  index : int;   (** Launch index. *)
  start : float; (** Absolute start cycle (cumulative over launches). *)
  dur : float;
  (** At least the launch's cycles; extended to cover trailing
      write-through DRAM drain recorded past the last warp's retirement. *)
}

type dump = {
  n_sms : int;
  window : int;  (** Sampling window in cycles; 0 when sampling was off. *)
  events : Repro_util.Event_ring.event array;  (** Oldest first. *)
  kernels : kernel_span list;  (** In launch order. *)
  dropped : int;  (** Events lost to the drop-oldest policy. *)
}
