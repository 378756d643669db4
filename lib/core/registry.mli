(** The program's type and virtual-function registry.

    This plays the role of the C++ compiler/runtime metadata: it knows
    every polymorphic type, the implementation bound to each vTable slot,
    and it materializes the vTables into simulated memory (one GPU table
    in the contiguous {!Vtable_space} arena and one CPU table elsewhere —
    [sharedNew] objects carry both pointers, Sec. 4).

    Implementations are OCaml closures; vTable slots in simulated memory
    hold dense implementation ids (stored off-by-one so that uninitialized
    memory is detectable), which the dispatcher loads back and resolves
    through this registry — the moral equivalent of the indirect branch. *)

type impl = Env.t -> int array -> unit
(** A virtual-function body: runs over the environment's active lanes,
    whose per-lane receiver objects are the second argument. *)

type typ

type t

val create : heap:Repro_mem.Page_store.t -> t

val register_impl : t -> name:string -> impl -> int
(** Returns the implementation id. [name] labels the call site with the
    method the implementation models; the registry does not keep it. *)

val impl_count : t -> int

val define_type :
  t -> name:string -> field_words:int -> ?parent:typ -> slots:int array -> unit -> typ
(** [slots] binds an implementation id to each virtual slot. All types
    sharing a slot index form an override set (the usual vTable layout
    discipline: slot [i] means the same virtual function in every type of
    a hierarchy). Raises after {!materialize}. *)

val types : t -> typ list

val type_count : t -> int

val find_type : t -> int -> typ
(** By dense id; raises [Invalid_argument] if unknown. *)

val materialize : t -> vtspace:Vtable_space.t -> space:Repro_mem.Address_space.t -> unit
(** Write every type's GPU vTable into the contiguous arena and its CPU
    vTable into a separate arena. Idempotent after the first call. *)

val materialized : t -> bool

(** {2 Type accessors} *)

val type_id : typ -> int
val type_name : typ -> string
val field_words : typ -> int
val n_slots : typ -> int
val parent : typ -> typ option
val impl_of_slot : typ -> slot:int -> int
val gpu_vtable : typ -> int
(** Raises [Failure] before {!materialize}. *)

val cpu_vtable : typ -> int

(** {2 Dispatch support} *)

val encode_impl_id : int -> int
(** The off-by-one encoding stored in vTable memory. *)

val decode_impl_id : int -> int
(** Raises [Failure] on 0 (uninitialized vTable memory — a real dispatch
    bug in the runtime). *)

val impl : t -> int -> impl

val total_vfunc_slots : t -> int
(** Sum of slot counts over all types (the Table 2 "vFuncs" column). *)
