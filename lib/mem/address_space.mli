(** Coarse layout of the simulated process address space.

    The runtime reserves a handful of disjoint arenas up front — heap space
    for each allocator, the contiguous vTable area TypePointer indexes
    into, and the virtual-range-table area COAL walks. Reservations are
    bump-allocated and never overlap; [reserve] enforces both. *)

type t

type arena = private {
  name : string;
  base : int;   (** First byte of the arena (canonical address). *)
  size : int;   (** Extent in bytes. *)
}

val create : unit -> t
(** A fresh address space. Its first reservation starts at a non-zero,
    page- and sector-aligned address, so address 0 (the null pointer) is
    never handed out. *)

val reserve : t -> name:string -> size:int -> arena
(** Reserve [size] bytes (rounded up to a page). Raises [Invalid_argument]
    if the space would exceed the 48-bit VA range. *)

val arenas : t -> arena list
(** All reservations, in allocation order. *)

val find : t -> string -> arena option
(** Look an arena up by name. *)

val contains : arena -> int -> bool
(** [contains a addr] holds when the canonical [addr] lies inside [a]. *)

val pp : Format.formatter -> t -> unit
