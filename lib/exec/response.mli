(** The response side of the serve protocol: everything the daemon says
    back, including a full-fidelity wire form of a measurement result.

    A {!Repro_workloads.Harness.run} round-trips through {!run_to_json}/
    {!run_decoder} bit-exactly: integer counters are carried as JSON
    ints and float counters in {!Repro_obs.Json}'s shortest-round-trip
    representation, so a client that decodes a daemon result holds the
    same stats, bit for bit, as an in-process run (a test and the CI
    smoke pin this). Telemetry payloads (window rows, event rings) are
    not carried — daemon jobs are plain measurement jobs, which never
    have them. *)

type outcome = {
  spec : Request.Spec.t;  (** Echo of the job's identity. *)
  cached : bool;          (** Served from the on-disk result cache. *)
  deduped : bool;
      (** Attached to another waiter's in-flight execution rather than
          scheduled on its own. *)
  wall_s : float;         (** Execution wall time (0 on a cache hit). *)
  result : (Repro_workloads.Harness.run, string) result;
}

val outcome_of_executor : ?deduped:bool -> Executor.outcome -> outcome
(** Bridge from the batch executor's outcome record ([deduped] defaults
    to [false] — the in-process executor never dedups). *)

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

val run_to_json : Repro_workloads.Harness.run -> Repro_obs.Json.t

val run_decoder :
  Repro_workloads.Harness.run Repro_obs.Json.Decode.decoder

val outcome_to_json : outcome -> Repro_obs.Json.t

val outcome_decoder : outcome Repro_obs.Json.Decode.decoder

val to_json : t -> Repro_obs.Json.t

val of_json : Repro_obs.Json.t -> (t, string) result
(** Same envelope rule as requests: [v] must match
    {!Request.schema_version}. *)

val to_line : t -> string
(** Compact one-line JSON, newline {e not} included. *)

val of_line : string -> (t, string) result
