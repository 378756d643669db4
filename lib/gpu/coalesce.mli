(** Per-warp memory-access coalescing.

    NVIDIA GPUs service a warp's global access as a set of 32-byte sector
    transactions: lanes touching the same sector share one transaction.
    This is the mechanism behind the whole paper — a diverged vTable*
    load (32 lanes, 32 different objects) costs up to 32 transactions,
    while 32 lanes reading the same range-table node cost one. *)

val sectors_into_unsafe :
  buf:int array -> dst:int -> int array -> off:int -> len:int -> int
(** [sectors_into_unsafe ~buf ~dst addrs ~off ~len] writes the distinct
    ascending sector ids of [addrs.(off .. off+len-1)] into
    [buf.(dst ..)] and returns how many it wrote (1..len).
    Allocation-free: a monomorphic insertion sort with inline
    deduplication. Per-element bounds checks are elided, so [off]/[len]
    must lie inside [addrs] and [buf] must hold at least [dst + len]
    entries ({!Trace}'s emission checks the lanes and reserves the
    cells). Tag bits on the addresses are ignored. {!sectors} is the
    naive reference. *)

val sectors : int array -> int array
(** [sectors addrs] is the sorted array of distinct 32 B sector indices
    touched by the given canonical byte addresses. *)

val transaction_count : int array -> int
(** [Array.length (sectors addrs)] without building the intermediate
    array's duplicates; 1..warp-size. *)
