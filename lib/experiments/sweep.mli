(** The one job matrix of the experiments: every workload under every
    column, run once, checked once, and read by the figures as views.
    Figs. 1b and 6–9, the tables, [dram] and [tlb] read the default
    sweep; Figs. 10 and 11, [init], the prototype-vs-MMU ablation
    and [repro compare] each run their own column list through {!exec}.
    Cross-column functional equality ({!Repro_workloads.Harness.validate_equal})
    is asserted per workload after sweeping.

    A column is a (technique × allocator family) pair, plus the initial
    SharedOA chunk size for the cells Fig. 10 varies. The default column
    set is the paper's five techniques under their paper allocators plus
    "DYNA": CUDA dispatch over the DynaSOAr-style SoA family, the sixth
    column the repo adds as a comparison platform.

    Built on {!Repro_exec}: the sweep is a workload-major job matrix
    handed to the parallel executor. Results come back in matrix order
    whatever the schedule, so figure output is byte-identical at any
    [?j]; with the cache on, consecutive figure/table regenerations
    measure once. *)

type column = {
  technique : Repro_core.Technique.t;
  alloc : Repro_core.Alloc_family.t;
  chunk_objs : int option;  (** SharedOA initial region size override. *)
}

val column :
  ?alloc:Repro_core.Alloc_family.t -> ?chunk_objs:int ->
  Repro_core.Technique.t -> column
(** [alloc] defaults to the technique's paper family, [chunk_objs] to
    the allocator's own. *)

val column_name : column -> string
(** Display name ({!Repro_core.Alloc_family.column_name}): "CUDA", ...,
    "DYNA". *)

val paper_columns : column list
(** The paper's five techniques on their paper allocators, in
    {!Repro_core.Technique.all_paper} order. *)

val default_columns : column list
(** {!paper_columns} plus DYNA (last). *)

type t

val default_scale : float
(** = {!Repro_workloads.Workload.default_scale} (0.25) — the repo-wide
    bare-sweep scale, shared with the wire protocol's absent-[scale]
    default. *)

type memo
(** Outcomes already measured in this process, by {!Repro_exec.Job.key}. *)

val memo : unit -> memo
(** An empty memo. *)

val jobs :
  ?scale:float ->
  ?iterations:int ->
  ?seed:int ->
  ?workloads:Repro_workloads.Workload.t list ->
  ?columns:column list ->
  ?pages:Repro_vm.Policy.t ->
  unit -> Repro_exec.Job.t list
(** The sweep's job list, workload-major ([w * n_columns + c]), with
    {!exec}'s defaults; each cell's params come from
    {!Repro_exec.Job.params}. [repro sweep] and [repro submit] take their
    jobs from here, so every surface that names a cell names the same
    job (and cache entry). *)

val exec :
  ?scale:float ->
  ?iterations:int ->
  ?seed:int ->
  ?j:int ->
  ?cache:bool ->
  ?cache_dir:string ->
  ?progress:(string -> unit) ->
  ?memo:memo ->
  ?workloads:Repro_workloads.Workload.t list ->
  ?columns:column list ->
  ?pages:Repro_vm.Policy.t ->
  unit -> t
(** Defaults: scale {!default_scale} (fast but representative; see
    EXPERIMENTS.md),
    {!default_columns}, all eleven workloads, the workloads' own
    iteration counts and seed, serial ([j = 1]), cache off, no address
    translation ([pages]). [progress] receives each
    job's label as it starts measuring; with [j > 1] it may fire
    concurrently from worker domains. Raises [Failure] naming every
    failed job (after all jobs finished), or on a cross-column
    functional mismatch.

    With a [memo], a job whose key it holds is not run again: its
    outcome is the memo's (the same run, wall time and cache flag), and
    every successful job this call runs is added to it. One figure
    command shares one memo, so cells that several figures read are
    measured once. *)

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
(** The cell at the workload's and the column's positions in the sweep
    (a run does not record its chunk size, so cells are found by
    position, not by their contents). Raises [Not_found]. *)

val get : t -> workload:string -> technique:Repro_core.Technique.t ->
  Repro_workloads.Harness.run
(** [get_column] of the technique's default-family column. Raises
    [Not_found]. *)
