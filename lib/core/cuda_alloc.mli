(** A model of the default CUDA device heap.

    The paper observes (Sec. 8.2) that the stock allocator "does not
    allocate objects of the same type consecutively and adds additional
    padding between allocated objects". We reproduce both properties:
    every allocation is rounded up to a 128-byte granule, and consecutive
    allocations are scattered round-robin across many independent slabs
    (the visible effect of per-warp arenas in the real heap), so a warp
    touching 32 logically-adjacent objects touches 32 far-apart cache
    sectors.

    The modelled allocation cost is high — device-side [new] on objects
    with virtual functions serializes on heap locks and a device-wide
    sync — which is the other side of the Sec. 8.2 "SharedOA initializes
    80× faster" comparison. *)

val granule_bytes : int
(** Placement granularity (128). *)

val cycles_per_alloc : float
(** Modelled device-side allocation cost per object. *)

val create :
  ?shadow:Repro_san.Shadow_heap.t ->
  space:Repro_mem.Address_space.t ->
  unit -> Allocator.t
(** Reserves 1 GB of (lazily materialized) address space, scattered
    over 64 slabs. Raises [Failure] when a slab overflows. When [shadow]
    is given, the arena is declared a heap range and every placement (true
    size, excluding granule padding) registered in the shadow map. *)
