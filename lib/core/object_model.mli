(** Object layout and member access under each technique.

    Layouts (in 64-bit words, before the user fields):

    - CUDA / TypePointer-on-CUDA: 1 header word — the GPU vTable pointer
      (what device-side [new] writes).
    - Concord: 1 header word — the embedded type tag.
    - SharedOA / COAL / TypePointer-on-SharedOA: 2 header words — the CPU
      vTable pointer and the GPU vTable pointer ([sharedNew] stores both,
      Sec. 4).

    User fields are 4-byte signed slots (the common case for the int
    fields of the paper's workloads) following the 8-byte header words;
    packing small objects tightly is precisely what SharedOA exploits.

    Member references go through here so that the TypePointer silicon
    prototype can charge its tag-masking instruction at every reference
    (Sec. 6.3) while the hardware-MMU variant pays nothing. *)

type t

val create : Technique.t -> t

val set_addr_hook : t -> (obj:int -> off:int -> int) option -> unit
(** Install the allocator's layout hook (see {!Allocator.t.field_addr}):
    every member reference — field or header word, device or host side —
    resolves through it, so an SoA allocator reroutes traffic to
    [block_base + per-field array + slot] instead of [obj + off].
    [None] (the default) is the identity AoS layout. *)

val technique : t -> Technique.t

val header_words : t -> int

val field_bytes : int
(** Size of one user field slot (4). *)

val object_bytes : t -> field_words:int -> int
(** Header plus payload, in bytes ([field_words] counts 4-byte field
    slots despite the historical name). *)

val gpu_vtable_slot : t -> int option
(** Which header word holds the GPU vTable pointer ([None] for Concord,
    whose header is a tag). *)

val field_addr : t -> ptr:int -> field:int -> int
(** Host-side address of user field [field] (canonical, tag stripped). *)

val header_addr : t -> ptr:int -> word:int -> int

val field_load :
  t -> Repro_gpu.Warp_ctx.t -> objs:int array -> field:int -> int array
(** Emit a warp load of one user field across lanes (label [Body]); in
    prototype TypePointer mode a mask instruction is charged first. *)

val field_store :
  t -> Repro_gpu.Warp_ctx.t -> objs:int array -> field:int -> int array -> unit

val field_load_host : t -> Repro_mem.Page_store.t -> ptr:int -> field:int -> int
(** Untimed host-side access (CPU sharing through unified memory). *)

val field_store_host :
  t -> Repro_mem.Page_store.t -> ptr:int -> field:int -> int -> unit
