(** Timing of the L1 → L2 → DRAM path.

    Each level has real tag state (hits are emergent) and a bandwidth
    reservation clock: a sector transaction starts no earlier than the
    level's [next_free] time and advances it by the reciprocal throughput.
    Latency accumulates level by level, so an L1 hit costs the L1 latency
    while a DRAM access pays all three. The per-SM L1s are flushed at
    kernel boundaries (CUDA semantics); the L2 persists across launches.

    The [_soa] entry points are the replay path: they read lane addresses
    straight out of a trace arena slice, coalesce into an internal scratch
    buffer, and exchange issue/completion times through the {!io} mailbox
    — no allocation per instruction. The array-based {!load}/{!store} are
    compatibility wrappers over them. *)

type t

val create : Config.t -> t

val io : t -> float array
(** Two-slot float mailbox used by the SoA entry points: the caller
    writes the issue time to [io.(0)] before the call; {!load_soa} writes
    the completion time to [io.(1)]. Communicating times through a float
    array keeps them unboxed across the module boundary (a [float]
    argument or return at a non-inlined call is boxed by ocamlopt). *)

val set_ring : t -> Telemetry.Ring.t option -> unit
(** Attach (or detach) a telemetry event ring. When set, every sector
    transaction is recorded — L1 accesses (per SM), L2 accesses, and
    DRAM transactions — with direct array stores, so the replay path
    stays allocation-free. Timing is unaffected. *)

val ring : t -> Telemetry.Ring.t option

val set_vm : t -> Repro_vm.Vm.t option -> unit
(** Attach (or detach) an address-translation model. When set, every
    coalesced sector is looked up in the TLB hierarchy before the L1
    (loads) or L2 (stores): hits and walks are counted in [Stats]
    ([tlb.*]), walk intervals are recorded in the event ring when one is
    attached, and the lookup latency delays that sector. Latencies are
    cached in a per-code float table at attach time, so the per-sector
    path stays allocation-free. [None] (the default) leaves the entry
    points on the exact pre-translation code path — byte-identical
    output and no extra per-sector work. Raises [Invalid_argument] when
    the model's {!Repro_vm.Vm.n_sms} differs from the configured
    [n_sms]: its per-SM L1 TLBs are indexed by SM unchecked. *)

val vm : t -> Repro_vm.Vm.t option

val flush_l1s : t -> unit
(** Invalidate the per-SM L1s. *)

val begin_kernel : t -> unit
(** Kernel-launch boundary: flush the L1s (and, when a translation model
    is attached, the per-SM L1 TLBs) and rewind all bandwidth
    reservation clocks to time zero (each launch is timed from 0; the L2
    tag state — data cache and TLB alike — persists across launches). *)

val load_soa :
  t -> stats:Stats.t -> label_idx:int -> sm:int -> arena:int array ->
  off:int -> len:int -> unit
(** Service a warp global load whose lane addresses are
    [arena.(off .. off+len-1)], issued at [io.(0)] on [sm]; writes the
    completion time (max over its coalesced sectors) to [io.(1)]. Counts
    load transactions (under label index [label_idx]), L1/L2 hits and
    DRAM sectors in [stats]. Allocation-free. *)

val store_soa :
  t -> stats:Stats.t -> sm:int -> arena:int array -> off:int -> len:int ->
  unit
(** Service a warp global store from an arena slice, issued at [io.(0)]
    (write-through; consumes L2/DRAM bandwidth and installs sectors in
    the L2, no L1 allocation). Allocation-free. *)

val load :
  t -> stats:Stats.t -> sm:int -> start:float -> label:Label.t ->
  addrs:int array -> float
(** Array-based wrapper over {!load_soa}; returns the completion time.
    Raises [Invalid_argument] when [addrs] has more lanes than the
    configured warp size. *)

val store :
  t -> stats:Stats.t -> sm:int -> start:float -> addrs:int array -> unit
(** Array-based wrapper over {!store_soa}. *)

val reset : t -> unit
(** Full reset: {!begin_kernel} plus an L2 flush (and a full TLB flush
    when a translation model is attached). Used when a run starts a
    fresh measurement region. *)

val l1_probe : t -> sm:int -> sector:int -> bool
(** Test hook. *)

(** Raw timing state for the fused replay loop, hoisted once per launch
    (same contract as {!Cache.Raw}: read/accumulate exactly as the entry
    points above do, never otherwise). *)
module Raw : sig
  val l1s : t -> Cache.t array
  val l2 : t -> Cache.t
  val clk : t -> float array
  (** [clk.(0)] = L2 next-free, [clk.(1)] = DRAM next-free. *)

  val l1_next_free : t -> float array
  val lsu_next_free : t -> float array
  val scratch : t -> int array
  (** Coalescer scratch, [warp_size] entries. *)

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
