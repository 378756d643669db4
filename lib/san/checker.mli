(** The per-run sanitizer instance.

    One [Checker.t] is threaded through a single runtime: the allocators
    feed its {!Shadow_heap}, the warp contexts report every global
    memory access to {!check_access}, the dispatcher reports resolved
    dispatch targets to {!record_dispatch} and, under TypePointer,
    cross-checks pointer tags via {!check_tagged_ptrs}. Violations are
    counted per kind (the device folds per-kernel deltas into its
    [Stats] counters) and the first few are kept with full context. *)

type access = Vtable | Vfunc | Other
(** What a checked access is loading; vTable and vFunc pointer loads
    additionally carry an 8-byte alignment obligation. *)

type t

val create :
  ?mutation:Mutation.t ->
  ?capture:int ->
  tags_expected:bool ->
  unit -> t
(** [tags_expected] is true when the technique issues tagged pointers
    (TypePointer): tag bits at the MMU are then legal and cross-checked
    against the shadow map instead of being flagged as non-canonical.
    [capture] is forwarded to the {!Oracle}. The first 32 violations
    are retained with full context; counting is unbounded. *)

val shadow : t -> Shadow_heap.t

val oracle : t -> Oracle.t

val mutation : t -> Mutation.t option

val tags_expected : t -> bool

val set_page_table : t -> Repro_vm.Page_table.t option -> unit
(** Attach (or detach) the translation model's page table. When set,
    every checked access is additionally translated: an address no page
    covers reports {!Violation.Vm_unmapped}, and an access inside a
    promoted large-page span whose owning type disagrees with the
    object's shadow type reports {!Violation.Vm_owner_mismatch}. The
    runtime re-attaches the table whenever it rebuilds the model. *)

val page_table : t -> Repro_vm.Page_table.t option

(** {2 Device-side hooks} *)

val check_access :
  t -> warp:int -> tids:int array -> access:access -> what:string ->
  width:int -> addrs:int array -> unit
(** Check one warp global load/store: [addrs] are the raw, possibly
    tagged per-lane addresses; [what] names the access for reports. *)

val check_tagged_ptrs :
  t -> warp:int -> tids:int array -> ptrs:int array -> unit
(** TypePointer tag integrity at dispatch: each pointer's tag must match
    the shadow map's recorded tag for the allocation it points into. *)

val record_dispatch :
  t -> warp:int -> tids:int array -> objs:int array -> targets:int array ->
  unit

(** {2 Results} *)

val count : t -> Violation.kind -> int
(** Total violations of one kind since creation. *)

val total : t -> int

val samples : t -> Violation.t list
(** The retained violations, in detection order. *)

val take_kernel_delta : t -> int array
(** Per-kind counts since the previous call (indexed by
    {!Violation.kind_index}); the device calls this once per launch. *)
