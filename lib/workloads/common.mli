(** Shared plumbing for workload implementations. *)

module R := Repro_core

val create_runtime : Workload.params -> R.Runtime.t

val garray_of_ptrs : R.Runtime.t -> name:string -> int array -> R.Garray.t
(** Materialize an object-pointer table in global memory. *)

val garray : R.Runtime.t -> name:string -> len:int -> R.Garray.t

val fill : R.Runtime.t -> R.Garray.t -> (int -> int) -> unit
(** Host-side initialization of every element. *)

val to_array : R.Runtime.t -> R.Garray.t -> int array

val vcall_all : R.Runtime.t -> ptrs:R.Garray.t -> n:int -> slot:int -> unit
(** The canonical "do-all" kernel: one thread per object; each thread
    loads its receiver pointer from [ptrs] and makes the virtual call. *)

val launch : R.Runtime.t -> n:int -> (R.Env.t -> unit) -> unit

val lane_tids : R.Env.t -> int array
