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
