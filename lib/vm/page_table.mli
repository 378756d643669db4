(** Span-compressed page table over the [Address_space] virtual layout.

    A span is a maximal contiguous byte interval backed by one page size
    (4 KB base pages or 2 MB large pages) with one owner. Page identity —
    the TLB tag — is span-relative, so promoted spans behave as if their
    backing frames were aligned to the span base (the Mosaic contract)
    without sharing a large frame across owners. Physical placement is a
    modelled bump allocation of frames per span. *)

type t

type page = {
  span : int;        (** Span index in the table. *)
  page_bytes : int;  (** 4096 or 2 MB. *)
  levels : int;      (** Radix-walk depth charged on a full TLB miss. *)
  owner : int;       (** Owning type_id for promoted spans, -1 otherwise. *)
  phys_addr : int;   (** Modelled physical address of the byte. *)
}

val small_page_bytes : int
val large_page_bytes : int

val small_levels : int
val large_levels : int

val max_levels : int
(** Walk depth charged for an unmapped address (= {!small_levels}). *)

val build :
  policy:Policy.t ->
  arenas:(int * int) list ->
  promoted:(int * int * int) list ->
  unit ->
  t
(** [build ~policy ~arenas ~promoted ()] maps every arena [(base, size)]
    reservation. Under [Coalesce], [promoted] — the allocator-reported
    [(base, limit, type_id)] contiguity spans, reservation-extent so they
    tile arenas exactly — is merged (adjacent same-type spans coalesce),
    filtered to spans of at least 64 KB, and backed by large pages; the
    rest of each arena gets base pages. [Flat_4k]/[Flat_2m] ignore
    [promoted]. Bases must be sector-aligned (reservations are
    page-rounded, so they are). *)

val spans : t -> int
val pages : t -> int
val large_spans : t -> int

val find : t -> int -> int
(** Span index containing the given {e sector}, or -1 when unmapped.
    Allocation-free (binary search). *)

val page_key : t -> hint:int -> int -> int
(** [page_key t ~hint sector]: the page identity used as TLB tag,
    [(find t sector lsl span_key_shift) lor page_offset], or -1 when the
    sector is unmapped — the replay path's one call per translation.
    [hint] is a non-negative guess at the span (the caller's previous
    span, {!span_of_key} of its last key); a right guess skips the
    binary search, and the result never depends on it. The table keeps
    no lookup state, so it is immutable once built. Allocation-free. *)

val span_of_key : int -> int
(** The span index a {!page_key} was built from. *)

val levels_of : t -> int -> int
(** Walk depth of the span's pages. *)

(** Raw span columns, read-only, for checking {!page_key} against an
    independent search: spans are sorted by [sbase]; span [i] covers
    sectors [\[sbase.(i), slimit.(i))] with pages of [1 lsl shift.(i)]
    sectors and walks [levels.(i)] levels. *)
module Raw : sig
  val sbase : t -> int array
  val slimit : t -> int array
  val shift : t -> int array
  val levels : t -> int array
end

val span_key_shift : int
(** Bits reserved for the in-span page offset in a {!page_key}. *)

val translate : t -> addr:int -> page option
(** Full translation of a (possibly tagged) virtual address; [None] when
    no mapping covers it. For tests and the sanitizer — the replay path
    uses {!page_key}. *)
