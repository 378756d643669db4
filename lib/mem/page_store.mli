(** Sparse backing store for the simulated address space.

    Memory is materialized lazily in 4 KB pages, each held as 4 KB of
    little-endian bytes. Untouched pages cost nothing, so workloads can
    place objects anywhere in the 48-bit space (which SharedOA's region
    scheme relies on). Loads of never-written words return 0, like
    zero-fill-on-demand pages.

    Addresses handed to this module must be canonical (tag bits stripped);
    the MMU model in the [gpu] library is responsible for stripping. *)

type t

val create : unit -> t
(** An empty store. *)

val page_bytes : int
(** Page size in bytes (4096). *)

val memo_slots : int
(** Entries of the store's direct-mapped page memo (256), a fixed part of
    its host footprint: two arrays of this many words. *)

val load : t -> int -> int
(** [load t addr] reads the 64-bit word at word-aligned [addr]: its low
    63 bits, as an OCaml int. Raises [Invalid_argument] on misaligned or
    tagged addresses. *)

val store : t -> int -> int -> unit
(** [store t addr v] writes word [v] at word-aligned [addr]. Word-width
    values must be non-negative (pointers, ids, indices); narrower signed
    data belongs in byte-width fields. Raises [Invalid_argument]
    otherwise. *)

val load_byte_width : t -> int -> width:int -> int
(** [load_byte_width t addr ~width] reads a naturally-aligned [width]-byte
    field (1, 2, 4 or 8) zero-extended. Used by compact object layouts.
    Raises [Invalid_argument] on a misaligned field or, at every width, a
    tagged address. *)

val store_byte_width : t -> int -> width:int -> int -> unit
(** Write counterpart of {!load_byte_width}; values are truncated to
    [width] bytes. *)

val load_batch : t -> int array -> off:int -> n:int -> width:int -> int array -> unit
(** [load_batch t addrs ~off ~n ~width out] fills [out.(0..n-1)] with
    {!load_byte_width} of [addrs.(off..off+n-1)] in one call — the warp
    instruction granularity the device's emission path uses,
    avoiding a cross-module call per lane. Element semantics (values and
    the exceptions raised) match {!load_byte_width} exactly. *)

val store_batch : t -> int array -> off:int -> n:int -> width:int -> int array -> unit
(** Write counterpart of {!load_batch}: stores [values.(0..n-1)] (the last
    argument) at [addrs.(off..off+n-1)] with {!store_byte_width}
    semantics. *)

val touched_pages : t -> int
(** Number of pages that have been materialized (footprint metric). *)

val footprint_bytes : t -> int
(** [touched_pages * page_bytes]. *)

val iter_words : t -> (int -> int -> unit) -> unit
(** [iter_words t f] calls [f addr value] for every materialized word with
    a non-zero value, in increasing address order. Used by checksum
    helpers. *)
