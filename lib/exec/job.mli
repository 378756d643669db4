(** A first-class unit of measurement work: one workload built and run
    under one technique with fixed parameters.

    Jobs are what the {!Executor} schedules and what the {!Cache} is
    keyed by. Because the simulator threads all state explicitly
    (runtime, device, heap are built fresh by [Workload.build]), jobs are
    independent and safe to run on separate domains. *)

type t = private {
  workload : Repro_workloads.Workload.t;
  technique : Repro_core.Technique.t;
  params : Repro_workloads.Workload.params;
}

val make : Repro_workloads.Workload.t -> Repro_workloads.Workload.params -> t
(** The technique is taken from [params.technique]. *)

val matrix :
  techniques:Repro_core.Technique.t list ->
  params:Repro_workloads.Workload.params ->
  Repro_workloads.Workload.t list ->
  t list
(** Workload-major cross product: all techniques of the first workload,
    then all of the second, ... — the canonical sweep order. *)

val workload_name : t -> string
(** Qualified ["suite/name"]. *)

val column_name : t -> string
(** The measured column's display name: the technique name, or the
    combined name when [params.alloc] overrides the allocator family
    (see {!Repro_core.Alloc_family.column_name}). *)

val label : t -> string
(** ["suite/name [COLUMN]"] for progress lines. *)

val key : t -> string
(** A stable, human-readable identity: workload, technique (all tag
    modes distinguished), allocator-family override, scale, seed,
    iteration override, chunk size, and whether a custom GPU config is
    attached. Equal keys mean the measurement is reproducibly
    identical. *)

val schema_version : string
(** The result cache's format version. Cache entries are [Marshal]ed
    {!Repro_workloads.Harness.run}s, so it must change whenever their
    runtime layout does (a test pins [Stats.t]'s). *)

val hash : t -> string
(** Hex digest of {!key} plus {!schema_version}; the on-disk cache file
    name. *)

val cacheable : t -> bool
(** False when [params.config] carries a custom GPU configuration
    (configs have no stable serialization, so such jobs are never
    cached), when a sanitizer is attached, or when telemetry is on
    (window rows and ring dumps are too large to cache usefully). *)

val run : t -> Repro_workloads.Harness.run
(** Build and measure. May raise whatever the workload raises. *)

val equal : t -> t -> bool
(** Key equality. *)
