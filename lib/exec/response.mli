(** The response side of the serve protocol: everything the daemon says
    back. A measurement result rides in {!Run_wire}'s bit-exact form, so
    a client that decodes a daemon result holds the same stats, bit for
    bit, as an in-process run (a test and the CI smoke pin this).

    The daemon never decodes a run to answer: a worker hands it the
    run's wire text — the payload of a cache hit as read from disk, or a
    fresh run encoded once — and {!job_done_line}/{!queried_line} splice
    that text into the envelope that {!to_line} would build around the
    decoded run, byte for byte. *)

type summary = {
  jobs : int;
  measured : int;
  cached : int;
  deduped : int;
  failed : int;
  wall_s : float;  (** Sum of per-job execution wall times. *)
}
(** A batch's tally, as [Batch_done] carries it. *)

type 'run outcome_of = {
  spec : Request.Spec.t;  (** Echo of the job's identity. *)
  cached : bool;          (** Served from the on-disk result cache. *)
  deduped : bool;
      (** Attached to another waiter's in-flight execution rather than
          scheduled on its own. *)
  wall_s : float;         (** Execution wall time (0 on a cache hit). *)
  result : ('run, string) result;
}
(** One job's answer, its run either decoded or still in wire text. *)

type outcome = Repro_workloads.Harness.run outcome_of

val outcome_of_executor :
  ?deduped:bool -> 'run Executor.outcome_of -> 'run outcome_of
(** Bridge from the batch executor's outcome record ([deduped] defaults
    to [false] — the in-process executor never dedups). *)

type status = Cached | Deduped | Measured

val status : _ outcome_of -> status
(** How a job was answered: [Cached] if served from the cache, else
    [Deduped] if attached to another execution, else [Measured]. This one
    rule feeds the table's status column, the {!summary} counts and the
    daemon's batch tally. *)

val no_jobs : summary

val count : summary -> _ outcome_of -> summary
(** Fold one outcome in: its {!status} count, [failed] when its result
    is an [Error], and its wall time. *)

val report_json :
  scale:float -> wall_s:float -> summary -> outcome list -> Repro_obs.Json.t
(** The [--json] document of [repro sweep] and [repro submit]: the
    summary's fields ([job_time_s] is its [wall_s]), the client's own
    wall time as [wall_s], then every outcome in {!outcome_to_json}
    form. *)

type server_stats = {
  sessions : int;        (** Connected clients. *)
  submitted : int;       (** Job submissions accepted (incl. duplicates). *)
  executed : int;        (** Jobs actually run by a worker. *)
  dedup_hits : int;      (** Submissions attached to an in-flight job. *)
  cache_hits : int;      (** Submissions served from the on-disk cache. *)
  queued : int;          (** Jobs waiting for a worker right now. *)
  running : int;         (** Jobs on a worker right now. *)
  uptime_s : float;
  svc : Repro_obs.Svc_metrics.snapshot option;
      (** Full service-metrics snapshot — only when the daemon runs with
          observability on. Additive optional wire field: an obs-off
          daemon's stats line is byte-identical to the pre-observability
          form, and the schema version stays put. *)
  stages : (string * Repro_obs.Hist.t) list;
      (** Per-stage latency histograms ({!Repro_obs.Svc_metrics.stage_names}
          order); [[]] when observability is off. *)
}

type health = {
  h_uptime_s : float;
  h_schema : int;    (** {!Request.schema_version} of the daemon. *)
  h_workers : int;
  h_sessions : int;
  h_queued : int;
  h_running : int;
}

type t =
  | Ack of { id : string; jobs : int }
      (** The batch was accepted; [jobs] results will follow. *)
  | Running of { id : string; index : int }
      (** Per-job progress: the batch's [index]-th job started executing
          (not sent for cache and dedup hits, which complete without
          running). *)
  | Job_done of { id : string; index : int; outcome : outcome }
  | Batch_done of {
      id : string;
      jobs : int;
      measured : int;
      cached : int;
      deduped : int;
      failed : int;
      wall_s : float;  (** Sum of per-job execution wall times. *)
    }
  | Queried of { hit : bool; run : Repro_workloads.Harness.run option }
  | Invalidated of { removed : int }
  | Server_stats of server_stats
  | Health of health
      (** Liveness probe answer; cheap enough to poll. *)
  | Trace_dump of { spans : int; dropped : int; trace : Repro_obs.Json.t }
      (** The span ring rendered by {!Repro_obs.Tracer.spans_to_json}:
          [trace] is a complete Chrome trace-event document, [spans] the
          events it holds, [dropped] how many older spans the ring
          overwrote. *)
  | Pong
  | Bye  (** Acknowledges [Shutdown]; the socket closes after it. *)
  | Error of { message : string }
      (** Request-level failure: malformed JSON, a decode error naming
          the offending field, or an unresolvable job spec. The
          connection stays up. *)

val batch_done : id:string -> summary -> t

val outcome_to_json : outcome -> Repro_obs.Json.t

val to_json : t -> Repro_obs.Json.t

val of_json : Repro_obs.Json.t -> (t, string) result
(** Same envelope rule as requests: [v] must match
    {!Request.schema_version}. *)

val to_line : t -> string
(** Compact one-line JSON, newline {e not} included. *)

val job_done_line : id:string -> index:int -> string outcome_of -> string
(** [to_line (Job_done {id; index; outcome})] for the outcome whose run
    is the decoding of the given {!Run_wire.encode} text, without
    decoding it: the text is copied into the line verbatim. *)

val queried_line : string option -> string
(** [to_line (Queried {hit; run})] likewise, with [hit] the presence of
    the run's wire text. *)

val of_line : string -> (t, string) result
