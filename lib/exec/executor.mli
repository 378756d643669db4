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
    - {b Caching}: with [~cache:true], each job is looked up, and on a
      miss measured and written back, in one step on the domain that
      runs it ({!Cache}'s atomic rename makes concurrent stores safe).
      So a list that repeats a cacheable key serves the repeat as a hit
      at [~jobs:1]. *)

type 'run outcome_of = {
  job : Job.t;
  result : ('run, string) result;
      (** [Error] carries the exception text of the raising job. *)
  wall_s : float;  (** Wall-clock seconds this job took (0 on a hit). *)
  cached : bool;   (** Served from the on-disk cache. *)
}

type outcome = Repro_workloads.Harness.run outcome_of

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

val hit : Job.t -> 'run -> 'run outcome_of
(** The outcome of a job served from the cache: [Ok run], no wall time,
    [cached]. {!run}, {!measure} and the daemon's event-thread hit path
    ({!Server}) all answer a hit with it. *)

val measure :
  ?runner:(Job.t -> (Repro_workloads.Harness.run, string) result) ->
  clock:(unit -> float) ->
  cache:bool ->
  dir:string ->
  Job.t ->
  string outcome_of * (Repro_obs.Svc_metrics.stage * float * float) list
(** One job through the full cache protocol: serve a hit if [cache],
    else measure it with {!timed} (tests inject [runner] fakes) and
    write the result back. This is the daemon's per-job step: {!run}'s
    step in text form ({!run} keeps the decoded run, so an uncached
    cell is never encoded).

    The outcome carries the run as its {!Run_wire.encode} text, never
    decoded: a hit's payload as {!Cache.lookup_text} read it, a miss's
    run encoded once (and stored as that text when [cache]). The daemon
    splices it into its answer ({!Response.job_done_line}).

    Alongside the outcome come the stages it timed, in order, as
    [(stage, t0, dur)]: [Cache_probe] (when [cache]) and [Run] (on a
    miss), [t0] read from [clock]. The daemon passes its observability
    clock, which is {!Repro_obs.Svc_metrics.null_clock} when
    observability is off; the outcome's [wall_s] (and the [Run]
    duration) always come from {!timed}. *)

val ok_exn : outcome -> Repro_workloads.Harness.run
(** The run, or [Failure] with the job label and captured error. *)

val errors : outcome list -> (Job.t * string) list
