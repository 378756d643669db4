(** Run counters.

    Everything the paper's figures report is derived from these: dynamic
    warp instructions by class (Fig. 7), global load transactions (Fig. 8),
    L1 hit rate (Fig. 9), and per-label attributed stall cycles, the
    PC-sampling stand-in behind Fig. 1b. Counters accumulate across kernel
    launches until {!reset}. *)

type t

val create : unit -> t

val reset : t -> unit

val add : t -> t -> unit
(** [add acc x] accumulates [x] into [acc]. *)

val copy : t -> t
(** A detached snapshot (fresh arrays, same values). *)

(** {2 Recording (used by the timing engine)} *)

val count_instr : t -> Instr.t -> unit

val count_classified : t -> [ `Mem | `Compute | `Ctrl ] -> int -> unit
(** [count_classified t cls n] records [n] dynamic instructions of class
    [cls] — the pre-classified form {!count_instr} reduces to; the SoA
    replay loop calls it with the trace's opcode already decoded. *)

val count_load_transactions : t -> Label.t -> int -> unit

val count_load_transactions_idx : t -> int -> int -> unit
(** {!count_load_transactions} by [Label.to_index] — the replay-path
    variant that avoids materializing a [Label.t]. *)

val count_store_transactions : t -> int -> unit

val count_l1 : t -> hit:bool -> unit

val count_l2 : t -> hit:bool -> unit

val count_dram_sector : t -> unit

val count_trace_dropped : t -> int -> unit
(** Accumulate telemetry ring-buffer drops (events lost to the
    drop-oldest spill policy; see {!Repro_util.Event_ring}). *)

val count_tlb_l1_hit : t -> unit

val count_tlb_l2_hit : t -> unit

val count_tlb_walk : t -> float -> unit
(** One page walk plus the cycles it was charged. *)

val attribute_stall : t -> Label.t -> float -> unit

val stall_accumulator : t -> float array
(** The raw per-label stall array (indexed by [Label.to_index]), exposed
    so the replay loop can accumulate stalls with flat float-array
    stores instead of a boxed [float] argument per call. Aliases the
    live counters — treat as write-accumulate only. *)

val load_transactions_accumulator : t -> int array
(** The raw per-label load-transaction array, same contract as
    {!stall_accumulator}: hoisted by the replay loop. *)

val bump_replay_counters :
  t ->
  mem:int -> compute:int -> ctrl:int ->
  load_trans:int -> store_trans:int ->
  l1_hits:int -> l1_misses:int -> l2_hits:int -> l2_misses:int ->
  dram_sectors:int -> unit
(** Flush the replay loop's locally-accumulated integer counters in one
    call; exactly equivalent to the per-instruction [count_*] sequence it
    replaces. *)

val bump_tlb_counters :
  t -> l1_hits:int -> l2_hits:int -> walks:int -> walk_cycles_total:float ->
  unit
(** The replay loop's TLB flush: adds the TLB hit and walk counts
    and {e replaces} the walk-cycle total with [walk_cycles_total], which
    the loop accumulated walk by walk from {!tlb_walk_cycles} — the same
    float adds in the same order as per-walk {!count_tlb_walk}. *)

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
(** Global load transactions (32 B sectors requested by loads). *)

val load_transactions_for : t -> Label.t -> int
(** Transactions attributed to one instruction label (Table 1's
    per-operation access accounting). *)

val store_transactions : t -> int

val l1_hits : t -> int

val l1_misses : t -> int

val l2_hits : t -> int

val l2_misses : t -> int

val l1_accesses : t -> int

val l1_hit_rate : t -> float
(** In [0,1]; [0.] when there were no accesses. *)

val l2_hit_rate : t -> float

val dram_sectors : t -> int

val trace_dropped : t -> int

val tlb_l1_hits : t -> int

val tlb_l2_hits : t -> int

val tlb_walks : t -> int

val tlb_walk_cycles : t -> float

val tlb_lookups : t -> int
(** Total translations ([l1 + l2 + walks]); zero when no page policy was
    active. *)

val stall_cycles : t -> Label.t -> float

val total_stall_cycles : t -> float

val san_violations_for : t -> Repro_san.Violation.kind -> int

val total_san_violations : t -> int

(** {2 Wire form}

    The serve protocol ships counter snapshots between the daemon and its
    clients. [raw] exposes every field of a snapshot as plain data so a
    serializer outside this library can encode it exactly and rebuild an
    identical [t] — floats are carried as floats (the JSON layer's
    shortest-round-trip representation keeps them bit-exact), so a
    decoded snapshot compares bit-for-bit with the original. *)

type raw = {
  cycles : float;
  mem_instrs : int;
  compute_instrs : int;
  ctrl_instrs : int;
  load_transactions : int;
  store_transactions : int;
  l1_hits : int;
  l1_misses : int;
  l2_hits : int;
  l2_misses : int;
  dram_sectors : int;
  trace_dropped : int;
  tlb_l1_hits : int;
  tlb_l2_hits : int;
  tlb_walks : int;
  tlb_walk_cycles : float;
  stalls : float array;  (** Indexed by [Label.to_index]; length [Label.count]. *)
  load_transactions_by_label : int array;  (** Ditto. *)
  san_violations : int array;
      (** Indexed by [Repro_san.Violation.kind_index]. *)
}

val to_raw : t -> raw
(** A detached plain-data snapshot (fresh arrays). *)

val of_raw : raw -> t
(** Rebuild a snapshot; raises [Invalid_argument] when an array length
    does not match its index space. *)

val pp : Format.formatter -> t -> unit
(** One-line counter summary plus, when any stalls were attributed, a
    per-label stall-share breakdown (driven by {!Label.all}). The full
    enumerable metric view lives in [Repro_obs.Metric]. *)
