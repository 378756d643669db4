(** One set-associative LRU TLB level, keyed on page identities. *)

type t

val create : sets:int -> ways:int -> t
(** [sets] must be a positive power of two, [ways] positive. *)

val entries : t -> int

val access : t -> key:int -> bool
(** Touch [key]: [true] on hit (LRU-refreshes the entry), [false] on
    miss (fills, evicting the set's LRU way). [key] must be
    non-negative. Allocation-free. *)

val probe : t -> key:int -> bool
(** Hit test without filling or touching LRU state. *)

val flush : t -> unit

(** Raw state for the GPU's fused replay loop, which inlines {!access}
    over it: a key's set starts at [(key land mask) * ways]; [tick.(0)]
    is the LRU clock, bumped once per access and stamped on the touched
    way; a miss fills the set's first minimum-stamp way. Read and update
    exactly as {!access} does, never otherwise. *)
module Raw : sig
  val tags : t -> int array
  val stamps : t -> int array
  val tick : t -> int array
  val mask : t -> int
  val ways : t -> int
end
