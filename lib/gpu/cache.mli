(** Sectored set-associative cache model (tag state only).

    Lines are 128 B made of four 32 B sectors, as in Volta's L1 and L2.
    A line can be resident with only some sectors valid: a miss on a
    resident line fetches just the missing sector, a miss on an absent
    line evicts the LRU way of the set and fetches the accessed sector.
    Hit rates are fully emergent — this is what makes the allocator-
    packing effects of SharedOA (Fig. 9) come out of the model instead of
    being assumed. *)

type geometry = {
  size_bytes : int;       (** Total capacity; must be sets*ways*line. *)
  line_bytes : int;       (** 128. *)
  ways : int;             (** Associativity. *)
}

val geometry : size_bytes:int -> line_bytes:int -> ways:int -> geometry
(** Validates divisibility and that both the set count and the sector
    count per line are powers of two — the lookup path is pure shift/mask,
    no div/mod. *)

type t

val create : geometry -> t

val access : t -> sector:int -> [ `Hit | `Miss ]
(** Look up one 32 B sector (global sector index from
    {!Repro_mem.Vaddr.sector_of}), updating recency and, on a miss,
    installing the sector. *)

val probe : t -> sector:int -> bool
(** Non-mutating presence check; used by tests. *)

val flush : t -> unit
(** Invalidate everything (kernel-launch boundary for the L1). *)

val geometry_of : t -> geometry
