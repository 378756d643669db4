(** Run counters.

    Everything the paper's figures report is derived from these: dynamic
    warp instructions by class (Fig. 7), global load transactions (Fig. 8),
    L1 hit rate (Fig. 9), and per-label attributed stall cycles, the
    PC-sampling stand-in behind Fig. 1b. Counters accumulate across kernel
    launches until {!reset}.

    Every counter is declared once, in {!Counter}, into one
    {!Repro_util.Counter_table}: the declaration gives its dotted id
    (what [Repro_obs.Metric] shows), its wire key and strictness (what
    [Repro_exec.Response] encodes and decodes), its units and its slot.
    A snapshot is the table's value array, so {!create}, {!reset},
    {!add} and {!copy} are one loop each and a new counter is one new
    line in {!Counter}. *)

module Counter : sig
  open Repro_util.Counter_table

  val cycles : entry
  val instructions_mem : entry
  val instructions_compute : entry
  val instructions_ctrl : entry
  val load_transactions : entry
  (** Global load transactions (32 B sectors requested by loads). *)

  val store_transactions : entry
  val l1_hits : entry
  val l1_misses : entry
  val l2_hits : entry
  val l2_misses : entry
  val dram_sectors : entry

  val trace_dropped : entry
  (** Telemetry events lost to the ring's drop-oldest spill policy (see
      {!Repro_util.Event_ring}). *)

  val tlb_l1_hits : entry
  val tlb_l2_hits : entry
  val tlb_walks : entry

  val tlb_walk_cycles : entry
  (** Cycles charged to page walks. All four [tlb.*] counters stay zero
      unless a run enables address translation. *)

  val stalls : family
  (** Attributed stall cycles, one member per {!Label.all}, member [i]
      for [Label.to_index] [i]; ids ["stall_cycles.<slug>"]. *)

  val load_transactions_by_label : family
  (** Load transactions per instruction label (Table 1's per-operation
      access accounting); ids ["load_transactions.<slug>"]. *)

  val san_violations : family
  (** Sanitizer violations per [Repro_san.Violation.kinds] member. *)

  (** {2 Computed} — views over the slots above; not additive. *)

  val instructions_total : entry
  val l1_hit_rate : entry
  (** In [0,1]; [0.] when there were no accesses. *)

  val l2_hit_rate : entry
  val stall_cycles_total : entry
end

val table : Repro_util.Counter_table.t
(** The table {!Counter} declares into: 16 scalars, then the three
    families. *)

type t = private float array
(** The table's value array, one slot per stored entry. Writers outside
    this module (the replay loop, the wire decoder) coerce it to
    [float array] and write slots in place. *)

val create : unit -> t
val reset : t -> unit

val add : t -> t -> unit
(** [add acc x] accumulates [x] into [acc], slot by slot. *)

val copy : t -> t
(** A detached snapshot. *)

(** {2 Recording} *)

val bump : t -> Repro_util.Counter_table.entry -> int -> unit
val bump_float : t -> Repro_util.Counter_table.entry -> float -> unit
val add_cycles : t -> float -> unit

val count_san_violations : t -> int array -> unit
(** Accumulate a per-kind sanitizer violation delta, indexed by
    [Repro_san.Violation.kind_index] (the device feeds each launch's
    {!Repro_san.Checker.take_kernel_delta} here). *)

(** {2 Reading} *)

val cycles : t -> float
(** Total kernel cycles accumulated (sum over launches of the slowest
    SM's completion time). *)

val instructions : t -> [ `Mem | `Compute | `Ctrl ] -> int
val total_instructions : t -> int
val load_transactions : t -> int
val l1_hits : t -> int
val l2_hits : t -> int
val l2_misses : t -> int
val l1_accesses : t -> int
val l1_hit_rate : t -> float
val l2_hit_rate : t -> float
val dram_sectors : t -> int
val trace_dropped : t -> int
val tlb_l1_hits : t -> int
val tlb_l2_hits : t -> int
val tlb_walks : t -> int
val tlb_walk_cycles : t -> float

val tlb_lookups : t -> int
(** Total translations ([l1 + l2 + walks]). *)

val stall_cycles : t -> Label.t -> float
val total_stall_cycles : t -> float
val san_violations_for : t -> Repro_san.Violation.kind -> int
val total_san_violations : t -> int

(** {2 Digest layout} *)

type raw
(** Every counter as a plain record field, arrays per family. {!digest}
    hashes its marshalled bytes, and [bench/perf] hashes them the same
    way, so this layout is frozen; compare two snapshots with [=] on
    it. *)

val to_raw : t -> raw

val digest : t -> string
(** Hex MD5 of [Marshal.to_string (to_raw s) [No_sharing]]: every
    field, floats bit for bit. The test ledger pins one per cell. *)
