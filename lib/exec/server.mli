(** [repro serve]: the persistent sweep daemon.

    One process owns the Domain worker pool and the on-disk result
    cache; any number of clients connect over a Unix socket and speak
    the line-delimited JSON protocol of {!Request}/{!Response} (see
    PROTOCOL.md). The interesting part is the scheduler:

    - {b Fair queueing}: each session has its own FIFO of pending jobs
      and workers pick round-robin across sessions, so a client that
      submits thousands of jobs cannot starve one that submits one.
    - {b Dedup}: an in-flight table keyed by {!Job.key} maps every job
      that is queued or running to a single execution; identical
      submissions — from the same or different clients — attach as
      waiters and all receive the result of the one run.
    - {b Hits on the event thread}: when both the daemon and the batch
      cache, the event thread probes the cache as it reads the submit
      and answers each hit in the same turn — never queued, never
      [running], no worker woken. Only misses reach the scheduler.
    - {b Cache-stampede protection}: only the event thread creates
      in-flight entries, one submit at a time; the worker probes the
      cache again once the entry exists, and the entry is removed only
      after the result is stored, so a cold cache plus N identical
      concurrent requests runs the job exactly once — the other N-1
      wait on the entry rather than racing to measure.
    - {b Cancellation}: a client disconnecting cancels its queued jobs
      (running jobs finish; entries other sessions also wait on are
      re-homed, not cancelled).

    Threading model: one event thread owns every socket (reads,
    parses, writes responses); [workers] Domains only execute jobs and
    hand finished work back through an event queue + wake pipe, with
    the stage timings they took. Session state, the span ring, the
    service counters and the stage histograms are therefore written by
    the event thread alone and take no lock; scheduler state is guarded
    by one mutex. *)

(** Observability knobs. On and off share one request path; what
    differs is data. {!obs_off} ([repro serve --no-obs]) is the null
    clock ({!Repro_obs.Svc_metrics.null_clock}: every stage lasts 0 s,
    no clock syscall, no allocation), no span ring and {!Repro_obs.Log.null}.
    The service counters and stage histograms are kept either way, but
    a daemon on the null clock leaves [svc] and [stages] out of its
    stats answer, so that answer — like every other response — is
    byte-identical to the pre-observability wire form. With a real
    clock every request line gets a trace id, six per-stage spans
    (decode, queued, dedup_wait, cache_probe, run, encode) and the
    end-to-end request record. *)
type obs = {
  log : Repro_obs.Log.t;  (** {!Repro_obs.Log.null} = silent. *)
  clock : unit -> float;
      (** Times every stage: [Unix.gettimeofday], or
          {!Repro_obs.Svc_metrics.null_clock} to turn timing and the
          [svc]/[stages] stats fields off. *)
  spans : Repro_util.Event_ring.t option;
      (** Event ring behind [Trace_dump]; bounded, drop-oldest. One span
          per stage: [kind] is its {!Repro_obs.Svc_metrics.stage_index},
          [track] 0 the event thread and 1..W the workers, [arg_a] the
          trace id, [ts]/[dur] seconds since server start. Only the
          event thread writes it. [None] answers [Trace_dump] with an
          error. *)
  slow_s : float;
      (** Requests at or above this many seconds count as slow and are
          logged at [Warn]. [infinity] = never. *)
}

val obs_off : obs

val obs_default :
  ?log:Repro_obs.Log.t -> ?slow_s:float -> ?trace_capacity:int -> unit -> obs
(** The wall clock, a fresh span ring ([trace_capacity] spans, default 4096;
    [0] disables tracing, a negative capacity raises [Invalid_argument]),
    slow threshold 0.25 s — what [repro serve] runs unless told
    otherwise. *)

type config = {
  socket_path : string;
  workers : int;      (** Worker domains executing jobs. *)
  cache : bool;       (** Master switch for the on-disk result cache. *)
  cache_dir : string;
  obs : obs;
}

val default_socket : unit -> string
(** [$REPRO_SOCKET] if set, else ["_repro_serve.sock"]. *)

type job_runner = Job.t -> (Repro_workloads.Harness.run, string) result
(** Tests inject counting/sleeping fakes; the default runs
    {!Job.run}. *)

val run : ?runner:job_runner -> config -> unit
(** Serve until a [Shutdown] request arrives. Blocks the calling
    thread; binds the socket (replacing a stale file, refusing a live
    one), ignores [SIGPIPE]. Raises [Failure] when the socket cannot be
    bound. *)

(** {2 Embedding} — used by the tests and the load-test harness. *)

type handle

val start : ?runner:job_runner -> config -> handle
(** {!run} on a background thread; returns once the socket accepts
    connections. *)

val stop : handle -> unit
(** Request shutdown over the socket and join the server thread. *)

(** {2 Client} — the connection helper the CLI, tests and bench use. *)

module Client : sig
  type t

  val connect : string -> t
  (** Raises [Unix.Unix_error] when nothing listens on the path. *)

  val set_timeout : t -> float -> unit
  (** Receive timeout in seconds ({!recv} then fails instead of
      blocking forever — the tests' safety net). *)

  val send : t -> Request.t -> unit
  (** Raises [Sys_error] when the daemon has closed the connection. *)

  val recv : t -> (Response.t, string) result
  (** Next response line; [Error] on EOF, timeout, or a line that does
      not decode. *)

  val call : t -> Request.t -> (Response.t, string) result
  (** {!send} then {!recv}: the next response line. [Error] (["server
      connection lost: ..."]) when the daemon has dropped the
      connection, whether the write or the read finds out. *)

  val submit :
    ?on_running:(int -> Request.Spec.t -> unit) ->
    ?cache:bool ->
    t ->
    id:string ->
    Request.Spec.t list ->
    (Response.outcome list * Response.summary, string) result
  (** Send one [Submit] batch ([cache] defaults to [true]) and read
      responses until its [Batch_done]: the outcomes in batch-index
      order, with the daemon's summary. [on_running index spec] fires
      on each of the batch's [Running] lines (never for a cache hit the
      daemon answered as it read the batch); responses to other batch
      ids are skipped. [Error] when the connection is lost, the batch
      is rejected (the connection stays usable), or [Batch_done]
      arrives before every result. *)

  val close : t -> unit
end
