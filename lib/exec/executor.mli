(** The sweep executor: takes a job list, answers an outcome per job in
    the same order, regardless of how jobs were scheduled or where their
    results came from.

    Decouples the measurement surface (what to run) from resource
    scheduling (how to run it), the same split DynaSOAr and Zorua apply
    between programming model and resources. Guarantees:

    - {b Deterministic ordering}: [List.nth (run jobs) i] always
      describes [List.nth jobs i].
    - {b Serial reproducibility}: [~jobs:1] runs the jobs one after
      another in list order, bit-for-bit the historical serial sweep.
      Each job emits on the calling domain; its replay may trail on a
      helper domain when a core is spare ({!Repro_workloads.Harness.run}),
      which changes no result.
    - {b Failure isolation}: a raising job becomes [Error] in its own
      outcome; siblings are unaffected.
    - {b Caching}: with [~cache:true], hits are served from disk and
      fresh results written back ({!Cache}). *)

type outcome = {
  job : Job.t;
  result : (Repro_workloads.Harness.run, string) result;
      (** [Error] carries the exception text of the raising job. *)
  wall_s : float;  (** Wall-clock seconds this job took (0 on a hit). *)
  cached : bool;   (** Served from the on-disk cache. *)
}

val default_jobs : unit -> int
(** Worker count used by the CLI when [-j] is not given:
    [Domain.recommended_domain_count ()]. *)

val run :
  ?jobs:int ->
  ?cache:bool ->
  ?cache_dir:string ->
  ?progress:(Job.t -> unit) ->
  Job.t list ->
  outcome list
(** [run jobs] with [?jobs] workers (default 1, i.e. serial) and the
    cache off by default. [progress] fires as each job starts measuring
    (not for cache hits); with [jobs > 1] it may be called from worker
    domains concurrently, so keep it to an atomic write such as a single
    [eprintf]. *)

val timed :
  ?runner:(Job.t -> (Repro_workloads.Harness.run, string) result) ->
  Job.t ->
  (Repro_workloads.Harness.run, string) result * float
(** Run one job on the calling domain through [runner] (default
    {!Job.run}), catching its exception text, and measure its wall time
    — the single measurement step both {!run} and the serve daemon's
    workers ({!Server}) are built on. *)

val measure :
  ?runner:(Job.t -> (Repro_workloads.Harness.run, string) result) ->
  clock:(unit -> float) ->
  cache:bool ->
  dir:string ->
  Job.t ->
  outcome * (Repro_obs.Svc_metrics.stage * float * float) list
(** One job through the full cache protocol: serve a hit if [cache],
    else measure it with {!timed} (tests inject [runner] fakes) and
    write the result back. This is the daemon's per-job step; {!run}
    keeps its batch shape (hits served up front, misses pooled) for the
    CLI sweep.

    Alongside the outcome come the stages it timed, in order, as
    [(stage, t0, dur)]: [Cache_probe] (when [cache]) and [Run] (on a
    miss), [t0] read from [clock]. The daemon passes its observability
    clock, which is {!Repro_obs.Svc_metrics.null_clock} when
    observability is off; the outcome's [wall_s] (and the [Run]
    duration) always come from {!timed}. *)

val ok_exn : outcome -> Repro_workloads.Harness.run
(** The run, or [Failure] with the job label and captured error. *)

val total_wall_s : outcome list -> float

val errors : outcome list -> (Job.t * string) list
