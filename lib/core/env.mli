(** The execution environment handed to kernel bodies and virtual-function
    implementations.

    It bundles the warp context (for emitting instructions and touching
    the heap), the object model (for member references) and re-entrant
    dispatch closures so that a virtual function body can itself make
    virtual calls. The dispatch closures are installed by {!Dispatch}. *)

type t = {
  ctx : Repro_gpu.Warp_ctx.t;
  om : Object_model.t;
  vcall : t -> objs:int array -> slot:int -> unit;
      (** Dynamic dispatch on per-lane objects ([objs] parallel to the
          active lanes of [ctx]). *)
  vcall_converged : t -> objs:int array -> slot:int -> unit;
      (** A call site the compiler statically proved converged (every
          lane calls on the same object): COAL leaves these
          un-instrumented (Sec. 5). *)
}

val restrict : t -> Repro_gpu.Warp_ctx.t -> t
(** The same environment over a divergent sub-context. *)

val field_load : t -> objs:int array -> field:int -> int array
(** Convenience over {!Object_model.field_load}. *)

val field_store : t -> objs:int array -> field:int -> int array -> unit

val compute : ?n:int -> t -> unit
(** Workload-body ALU work. *)
