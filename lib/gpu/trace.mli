(** Per-warp dynamic instruction traces (phase-1 output, phase-2 input).

    Stored as a structure of arrays: one flat int array per field (opcode,
    label id, active lanes, repeat count, blocking flag, arena offset) plus
    a per-trace address arena holding the canonical per-lane byte addresses
    of every memory instruction back to back. The functional phase appends
    through the [emit_*] functions (amortized-doubling growth, tag bits
    stripped as addresses enter the arena); the timing phase replays by
    index through the int-returning accessors without touching the minor
    heap. *)

type t

val create : ?capacity:int -> unit -> t

val reset : t -> unit
(** Rewind to empty, keeping capacity. The interned emission engine
    replays one scratch trace per device: [reset] between warps, then
    {!Intern.seal} to snapshot the stream. *)

val length : t -> int
(** Number of trace records (one [Compute n] record counts once here). *)

val instruction_total : t -> int
(** Total dynamic warp instructions (expanding [Compute n]/[Ctrl n]).
    Maintained incrementally; O(1). *)

(** {1 Opcodes}

    The values stored in the opcode array and returned by {!op}. *)

val op_load : int
val op_store : int
val op_compute : int
val op_ctrl : int
val op_const_load : int
val op_call_indirect : int
val op_call_direct : int

(** {1 Emission (functional phase)} *)

val emit_load : t -> label:Label.t -> blocking:bool -> int array -> int
(** [emit_load t ~label ~blocking addrs] records one global-load
    instruction, stripping each address's tag bits as it is copied into the
    arena, and returns the arena offset of the first lane ([Array.length
    addrs] consecutive entries). Raises [Invalid_argument] on an empty
    lane set. *)

val emit_load_n : t -> label:Label.t -> blocking:bool -> int array -> int -> int
(** [emit_load_n t ~label ~blocking buf n] is {!emit_load} over
    [buf.(0 .. n-1)] — the scratch-buffer form used by [Warp_ctx.load_into],
    where [buf] may be wider than the warp. *)

val emit_store : t -> label:Label.t -> int array -> int
(** Same for a (non-blocking) global store. *)

val emit_store_n : t -> label:Label.t -> int array -> int -> int
(** Scratch-buffer form of {!emit_store}. *)

val emit_compute : t -> label:Label.t -> n:int -> blocking:bool -> active:int -> unit

val emit_ctrl : t -> label:Label.t -> n:int -> active:int -> unit

val emit_const_load : t -> label:Label.t -> active:int -> unit

val emit_call_indirect : t -> label:Label.t -> active:int -> unit

val emit_call_direct : t -> label:Label.t -> active:int -> unit

(** {1 Replay accessors (timing phase)}

    All return immediates; none allocate. *)

val op : t -> int -> int

val label_index : t -> int -> int
(** The record's {!Label.to_index}. *)

val active : t -> int -> int
(** Active lane count; for memory records this is also the arena slice
    length. *)

val repeat : t -> int -> int
(** The record's {!Instr.instruction_count}. *)

val is_blocking : t -> int -> bool

val addr_off : t -> int -> int
(** Arena offset of a memory record's addresses; -1 for non-memory
    records. *)

val arena : t -> int array
(** The current address arena. Emission may replace the array (growth), so
    re-fetch after any [emit_*]; during replay the trace is frozen and the
    array is stable. *)

(** {1 Interning}

    Hash-consing of warp instruction streams. The paper's workloads are
    homogeneous per type, so a launch's traces collapse to a handful of
    distinct record-column sets; sealing a warp's scratch trace through a
    pool shares the column arrays (op/label/active/repeat/blocking/offset)
    of every warp with an identical stream. Per-lane addresses are {e
    never} shared — they differ per warp and drive coalescing, cache and
    TLB state — so each sealed trace keeps a private exact-size arena.
    Replay through a sealed trace is structurally identical to replay
    through a plain one: timing and stats are byte-identical. *)
module Intern : sig
  type pool

  val create : unit -> pool
  (** An empty pool; typically one per kernel launch. *)

  val seal : pool -> t -> t
  (** [seal pool scratch] snapshots [scratch] into a frozen trace:
      columns are hash-consed through [pool] (shared physically with any
      earlier identical stream), the arena is copied exact-size. The
      scratch is not modified — {!reset} it before the next warp. *)

  val sealed : pool -> int
  (** Streams sealed through the pool. *)

  val unique : pool -> int
  (** Distinct streams the pool holds; [sealed / unique] is the launch's
      dedup ratio. *)

  val sealed_instrs : pool -> int
  (** Dynamic warp instructions across all sealed streams. *)

  val unique_instrs : pool -> int
  (** Ditto across distinct streams only. *)
end

val shares_columns : t -> t -> bool
(** Physical column-array sharing (interning worked) — test hook. *)

val arena_length : t -> int
(** Live prefix of {!arena}. *)

(** Column views for the replay loop ({!Sm.run}): hoisted
    once per launch so per-instruction reads are direct array loads (no
    flambda, so the per-record accessors above are real calls). Only the
    first {!length} entries are live; never mutate through these. *)
module Raw : sig
  val op_col : t -> int array
  val lbl_col : t -> int array
  val act_col : t -> int array
  val rep_col : t -> int array
  val blk_col : t -> int array
  val aoff_col : t -> int array
end
