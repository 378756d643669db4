(** The SIMT kernel-authoring DSL (functional phase).

    A kernel body runs once per warp, in lockstep over the warp's active
    lanes. Per-lane state is carried in arrays parallel to {!tids}. Every
    operation both performs its functional effect against the simulated
    heap and records a labelled warp instruction in the trace that the
    timing phase later replays.

    Addresses may carry TypePointer tag bits; they are stripped before the
    heap or the coalescer sees them (the hardware-MMU view). Charging the
    extra strip instructions of the silicon prototype is the object
    model's job, not this module's.

    Divergence: {!diverge} splits the active mask by a per-lane key and
    runs the body once per distinct key over that subset, serializing the
    subsets exactly like the SIMT reconvergence stack, and charging one
    control instruction per executed subset. *)

type t

val create :
  ?san:Repro_san.Checker.t -> ?trace:Trace.t ->
  heap:Repro_mem.Page_store.t -> warp_id:int -> lanes:int array -> unit -> t
(** Used by the device launch path; [lanes] are the global thread ids of
    the active lanes (≤ warp size, non-empty). When [san] is given, every
    load and store reports its raw per-lane addresses to the sanitizer
    before the heap sees them. [trace] lets the device pass its reusable
    scratch trace (default: a fresh one). *)

val addr_scratch : t -> int -> int array
(** A reusable per-warp address buffer of at least the given size, for
    callers to fill and hand to {!load_into}/{!store_from}. Only
    valid until the next [addr_scratch] caller; never held across a
    kernel-body call. *)

val trace : t -> Trace.t

val warp_id : t -> int

val tids : t -> int array
(** Global thread ids of the currently active lanes. *)

val n_active : t -> int

val load : ?width:int -> t -> label:Label.t -> int array -> int array
(** [load t ~label addrs] emits one global-load warp instruction and
    returns the loaded words, zero-extended. [addrs] is per-active-lane;
    [width] is the access size in bytes (1, 2, 4 or 8; default 8) —
    narrower fields are how real object layouts pack, and the coalescer
    sees the true byte addresses. When every lane names one address (a
    converged call site) the same record is emitted with its one sector
    and the page is read once: same values, same exceptions. *)

val load_nonblocking : ?width:int -> t -> label:Label.t -> int array -> int array
(** Same, but the warp does not stall on the result (prefetch-like). *)

val store : ?width:int -> t -> label:Label.t -> int array -> int array -> unit
(** [store t ~label addrs values]; values are truncated to [width]. *)

val load_into :
  ?width:int -> t -> label:Label.t -> blocking:bool -> addrs:int array ->
  n:int -> int array
(** [load_into t ~label ~blocking ~addrs ~n] is {!load} over
    [addrs.(0 .. n-1)], where [addrs] is a caller-owned scratch buffer
    that may be wider than the warp ([n] must equal {!n_active}). The
    object model's field path: only the returned value array is
    allocated. *)

val store_from :
  ?width:int -> t -> label:Label.t -> addrs:int array -> n:int ->
  int array -> unit
(** Scratch-buffer form of {!store}. *)

val compute : ?n:int -> ?blocking:bool -> t -> label:Label.t -> unit
(** [n] dependent ALU instructions (default 1). *)

val ctrl : ?n:int -> t -> label:Label.t -> unit

val const_load : t -> label:Label.t -> unit

val call_indirect : t -> label:Label.t -> unit

val call_direct : t -> label:Label.t -> unit

val group_by_key : int array -> (int * int list) list
(** Distinct keys in first-occurrence order with the member indices of
    each group — the reference grouping {!diverge} must match; exposed
    for its test. *)

val diverge :
  t -> label:Label.t -> keys:int array -> (key:int -> t -> int array -> unit) -> unit
(** [diverge t ~label ~keys body] groups active lanes by [keys] (one key
    per active lane) and calls [body ~key sub parent_idxs] for each
    distinct key in first-occurrence order, where [sub] is the context
    restricted to that subset and [parent_idxs] maps [sub]'s lanes back to
    indices in [t]'s active arrays. *)

val if_ :
  t -> label:Label.t -> pred:bool array ->
  (t -> int array -> unit) -> (t -> int array -> unit) option -> unit
(** Two-way sugar over {!diverge}. The else branch may be [None]. *)

val gather : int array -> int array -> int array
(** [gather idxs a] selects [a.(i)] for each [i] in [idxs]; the standard
    way to restrict parent per-lane arrays inside a divergent branch. *)

val scatter : int array -> int array -> int array -> unit
(** [scatter idxs dst src] writes [src.(k)] to [dst.(idxs.(k))]. *)
