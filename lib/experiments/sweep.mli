(** The shared measurement sweep behind Figures 6–9: every workload under
    every measured column, run once and reused by all the figure
    renderers (they are different views of the same profile, as in the
    paper). Cross-column functional equality is asserted after sweeping.

    A column is a (technique × allocator family) pair. The default
    column set is the paper's five techniques under their paper
    allocators plus "DYNA": CUDA dispatch over the DynaSOAr-style SoA
    family, the sixth column the repo adds as a comparison platform.

    Built on {!Repro_exec}: the sweep is a workload-major job matrix
    handed to the parallel executor. Results come back in matrix order
    whatever the schedule, so figure output is byte-identical at any
    [?j]; with the cache on, consecutive figure/table regenerations
    measure once. *)

type column = {
  technique : Repro_core.Technique.t;
  alloc : Repro_core.Alloc_family.t;
}

val column :
  ?alloc:Repro_core.Alloc_family.t -> Repro_core.Technique.t -> column
(** [alloc] defaults to the technique's paper family. *)

val column_name : column -> string
(** Display name ({!Repro_core.Alloc_family.column_name}): "CUDA", ...,
    "DYNA". *)

val default_columns : column list
(** The paper's five plus DYNA (last). *)

type t

val default_scale : float
(** = {!Repro_workloads.Workload.default_scale} (0.25) — the repo-wide
    bare-sweep scale, shared with the wire protocol's absent-[scale]
    default. *)

val exec :
  ?scale:float ->
  ?iterations:int ->
  ?j:int ->
  ?cache:bool ->
  ?cache_dir:string ->
  ?progress:(string -> unit) ->
  ?workloads:Repro_workloads.Workload.t list ->
  ?columns:column list ->
  ?pages:Repro_vm.Policy.t ->
  unit -> t
(** Defaults: scale {!default_scale} (fast but representative; see
    EXPERIMENTS.md),
    {!default_columns}, all eleven workloads, serial ([j = 1]), cache
    off, no address translation ([pages]). [progress] receives each
    job's label as it starts measuring; with [j > 1] it may fire
    concurrently from worker domains. Raises [Failure] naming every
    failed job (after all jobs finished), or on a cross-column
    functional mismatch. *)

val outcomes : t -> Repro_exec.Executor.outcome list
(** Per-job scheduling detail (wall time, cache hits), in matrix order —
    what [repro sweep] prints. *)

val runs : t -> Repro_workloads.Harness.run list

val workload_names : t -> string list
(** Qualified names in sweep order. *)

val columns : t -> column list

val techniques : t -> Repro_core.Technique.t list
(** Distinct techniques over {!columns}, first-occurrence order. *)

val get_column :
  t -> workload:string -> column:column -> Repro_workloads.Harness.run
(** Raises [Not_found]. *)

val get : t -> workload:string -> technique:Repro_core.Technique.t ->
  Repro_workloads.Harness.run
(** The technique's default-family run. Raises [Not_found]. *)
