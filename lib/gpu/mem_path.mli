(** State of the L1 → L2 → DRAM timing path.

    Each level has real tag state (hits are emergent) and a bandwidth
    reservation clock: a sector transaction starts no earlier than the
    level's [next_free] time and advances it by the reciprocal throughput.
    Latency accumulates level by level, so an L1 hit costs the L1 latency
    while a DRAM access pays all three. The per-SM L1s are flushed at
    kernel boundaries (CUDA semantics); the L2 persists across launches.

    This module owns the state and its lifecycle; {!Sm.run} walks it
    (DESIGN.md §4 states the arithmetic). *)

type t

val create : Config.t -> t

val set_vm : t -> Repro_vm.Vm.t option -> unit
(** Attach (or detach) an address-translation model. When set, every
    coalesced sector is looked up in the TLB hierarchy before the L1
    (loads) or L2 (stores): hits and walks are counted in [Stats]
    ([tlb.*]), walk intervals are recorded in the event ring when one is
    attached, and the lookup latency delays that sector. Latencies are
    cached in a per-code float table at attach time, so the per-sector
    path stays allocation-free. [None] (the default) makes the replay's
    sector walks skip the lookup: nothing is counted and no sector is
    delayed, so the output is byte-identical to a machine without
    translation. Raises [Invalid_argument] when the model's
    {!Repro_vm.Vm.n_sms} differs from the configured [n_sms]: its per-SM
    L1 TLBs are indexed by SM unchecked. *)

val vm : t -> Repro_vm.Vm.t option

val flush_l1s : t -> unit
(** Invalidate the per-SM L1s. *)

val begin_kernel : t -> unit
(** Kernel-launch boundary: flush the L1s (and, when a translation model
    is attached, the per-SM L1 TLBs) and rewind all bandwidth
    reservation clocks to time zero (each launch is timed from 0; the L2
    tag state — data cache and TLB alike — persists across launches). *)

val reset : t -> unit
(** Full reset: {!begin_kernel} plus an L2 flush (and a full TLB flush
    when a translation model is attached). Used when a run starts a
    fresh measurement region. *)

val l1_probe : t -> sm:int -> sector:int -> bool
(** Test hook. *)

(** Raw timing state for {!Sm.run}, hoisted once per launch. The clocks
    are advanced only as DESIGN.md §4 states; the costs are read-only. *)
module Raw : sig
  val l1s : t -> Cache.t array
  val l2 : t -> Cache.t
  val clk : t -> float array
  (** [clk.(0)] = L2 next-free, [clk.(1)] = DRAM next-free. *)

  val l1_next_free : t -> float array
  val lsu_next_free : t -> float array

  val inv_l1_tp : t -> float
  val inv_l2_tp : t -> float
  val inv_lsu_tp : t -> float
  val inv_dram_cost : t -> float
  val dram_pair_cost : t -> float
  val l1_lat : t -> float
  val l2_lat : t -> float
  val dram_lat : t -> float
  val n_over_l1 : t -> float array

  val vm_lat : t -> float array
  (** Cycles charged per {!Repro_vm.Vm.lookup} code, filled by
      {!set_vm}. *)
end
