(** The program façade tying everything together.

    A [Runtime.t] is one program under one technique: a simulated heap
    and GPU, the type registry, the allocator the technique prescribes
    (SharedOA or the default-CUDA model), the contiguous vTable arena,
    COAL's range table when applicable, and the dispatcher. Workloads
    define types and implementations, allocate objects with {!new_obj}
    (the [sharedNew] of Sec. 4) and launch kernels; all five techniques
    expose the identical API, so a workload is written once and measured
    under each. *)

type t

val create :
  ?config:Repro_gpu.Config.t ->
  ?chunk_objs:int ->
  ?vt_encoding:Vtable_space.encoding ->
  ?san:Repro_san.Checker.t ->
  ?telemetry:Repro_gpu.Telemetry.config ->
  ?alloc:Alloc_family.t ->
  ?pages:Repro_vm.Policy.t ->
  technique:Technique.t ->
  unit -> t
(** [chunk_objs] is SharedOA's initial region size in objects (Fig. 10
    sweeps it). [san] attaches a sanitizer to the whole runtime: the
    allocator feeds its shadow heap, the device checks every access, the
    dispatcher records resolved targets, and a seeded [Skew_range]
    mutation is applied to COAL's range table after each rebuild.
    [alloc] overrides the allocator family (default
    {!Alloc_family.default_for}[ technique]); the family's [field_addr]
    capability is installed as the object model's address hook, so an
    SoA family reshapes all member traffic. Raises [Invalid_argument]
    when the checker's [tags_expected] disagrees with whether
    [technique] tags pointers.

    [pages] opts into the address-translation model under the given
    page-size policy: before each launch whose heap layout changed, the
    runtime rebuilds a page table from the address space and the
    allocator's {!Allocator.t.contiguity} report, prices every memory
    access through a two-level TLB hierarchy, and (when a sanitizer is
    attached) validates each checked access against the mapping. Omitted
    (the default), the timing model is exactly the untranslated one. *)

val san : t -> Repro_san.Checker.t option

val technique : t -> Technique.t

val alloc_family : t -> Alloc_family.t
(** The family actually in use (the override, or the technique's
    default). *)

val registry : t -> Registry.t
val heap : t -> Repro_mem.Page_store.t
val device : t -> Repro_gpu.Device.t
val object_model : t -> Object_model.t
val allocator : t -> Allocator.t
val range_table : t -> Range_table.t option
val address_space : t -> Repro_mem.Address_space.t

val pages : t -> Repro_vm.Policy.t option
(** The page-size policy the runtime was created with. *)

val vm : t -> Repro_vm.Vm.t option
(** The translation model currently attached to the device ([None]
    before the first launch, or when [pages] was omitted). *)

val register_impl : t -> name:string -> Registry.impl -> int

val define_type :
  t -> name:string -> field_words:int -> ?parent:Registry.typ ->
  slots:int array -> unit -> Registry.typ
(** Must precede the first allocation. *)

val new_obj : t -> Registry.typ -> int
(** Allocate and initialize one object; the returned pointer carries tag
    bits under TypePointer. Materializes vTables on first use. *)

val new_objs : t -> Registry.typ -> int -> int array

val n_objects : t -> int

val allocations : t -> (int * Registry.typ) array
(** Every allocation in program order. *)

val launch : t -> n_threads:int -> (Env.t -> unit) -> unit
(** Launch a kernel; rebuilds COAL's range table first when the region
    set changed since the last launch. *)

val stats : t -> Repro_gpu.Stats.t

val kernel_timeline : t -> Repro_gpu.Stats.t list
(** Per-launch counter deltas since the last {!reset_stats}, in launch
    order (see {!Repro_gpu.Device.kernel_timeline}). *)

val window_timeline : t -> Repro_gpu.Stats.t array list
(** Per-launch window rows when the runtime was created with a sampling
    [telemetry] config (see {!Repro_gpu.Device.window_timeline}). *)

val sample_window : t -> int option

val telemetry_dump : t -> Repro_gpu.Telemetry.dump option
(** Event-ring snapshot when tracing is on (see
    {!Repro_gpu.Device.telemetry_dump}). *)

val cycles : t -> float

val reset_stats : t -> unit
(** Clears device counters and dispatch call counters (the warm-up /
    measurement boundary). *)

val warp_vcalls : t -> int
val thread_vcalls : t -> int

val vfunc_pki : t -> float
(** Dynamic virtual calls per thousand warp instructions since the last
    {!reset_stats} (Table 2). *)

val checksum : t -> int
(** Order-stable hash of every user field of every allocation — equal
    across techniques when the workload computed the same result
    (functional validation, Sec. 8). *)
