(** The contiguous vTable arena.

    TypePointer requires every GPU vTable to live in one contiguous region
    so that the 15 tag bits can address it: 2^15 bytes = 32 KB, i.e. 4 K
    64-bit function pointers shared by all types (Sec. 6.1). Two encodings
    are supported:

    - [Byte_offset] (default): the tag is the vTable's byte offset into
      the arena. Compact, dispatch is SHR + ADD.
    - [Padded_index]: every vTable is padded to the largest vTable size
      and the tag is an index, multiplied at dispatch by a size register
      (fused multiply-add); supports up to 32 K types at the price of
      padding (Sec. 6.2).

    CUDA appears to allocate vTables contiguously already (Sec. 6.1), so
    the same arena backs dispatch under every technique. *)

type encoding =
  | Byte_offset
  | Padded_index of { padded_slots : int }

type t

val create :
  ?encoding:encoding ->
  heap:Repro_mem.Page_store.t ->
  space:Repro_mem.Address_space.t ->
  unit -> t

val encoding : t -> encoding

val base : t -> int
(** Arena base address ([vTablesStartAddr], the fixed register of
    Fig. 5b). *)

val capacity_slots : t -> int
(** Total function-pointer slots the 15 tag bits can address (4096 for
    byte-offset encoding). *)

val alloc : t -> n_slots:int -> int
(** Reserve a vTable with [n_slots] function-pointer slots; returns its
    address. Raises [Failure] when the arena (or the padded size) is
    exceeded — the condition under which the paper falls back to COAL. *)

val tag_of_vtable : t -> vtable:int -> int
(** The 15-bit tag encoding this vTable's location. *)

val vtable_of_tag : t -> tag:int -> int
(** Inverse of {!tag_of_vtable}. *)

val slot_addr : vtable:int -> slot:int -> int
(** Address of function-pointer slot [slot] in a vTable. *)
