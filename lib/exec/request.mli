(** The versioned request surface of the serve protocol.

    A job named by strings — on the wire, or by one of the [repro]
    single-job commands — is a {!Spec}: a plain-data job description
    (workload and technique by name, scale, seed, overrides) that
    resolves to a {!Job.t} with a uniform error message for unknown names
    and params from {!Job.params}. The wire
    protocol then wraps specs in an explicit envelope carrying
    {!schema_version}; decoding rejects other versions up front, and a
    malformed message reports the offending field by path (see
    {!Repro_obs.Json.Decode}).

    Wire form: one JSON object per line (LF-terminated, no newlines
    inside). Requests carry [{"v": 2, "type": ...}]; see PROTOCOL.md for
    the full message reference. (v2 aligned the absent-[scale] default
    with [repro sweep]'s 0.25 — under v1 a bare submit silently ran
    scale 1.0.) *)

val schema_version : int
(** The protocol generation this build speaks. Bump on any change to the
    request or response shape that an old peer could misread. *)

(** {2 Technique names}

    The wire spells techniques with the CLI's short names ([cuda], [con],
    [shard], [coal], [tp], [tp-hw], [tp/cuda]); every constructible
    {!Repro_core.Technique.t} round-trips. *)

val technique_names : string list
(** The seven spellings above, for error messages and docs. *)

val technique_to_string : Repro_core.Technique.t -> string

val technique_of_string : string -> (Repro_core.Technique.t, string) result
(** Accepts everything {!Repro_core.Technique.of_string} does. *)

module Spec : sig
  type t = {
    workload : string;   (** Name as [Registry.find] accepts it. *)
    technique : string;  (** Short name as {!technique_of_string} accepts it. *)
    alloc : string option;
        (** Allocator-family name as {!Repro_core.Alloc_family.of_string}
            accepts it; [None] = the technique's default family. *)
    scale : float;
    seed : int;
    iterations : int option;
    chunk_objs : int option;
    pages : string option;
        (** Page-size policy name as {!Repro_vm.Policy.parse} accepts it;
            [None] = no address translation. Never the string ["none"] —
            constructors canonicalize it away so the job key and cache
            agree with the omitted form. *)
  }

  val default_scale : float
  (** = {!Repro_workloads.Workload.default_scale} (0.25) — the same
      constant [repro sweep] uses, so a bare submit and a bare sweep are
      the same run. *)

  val make :
    ?alloc:string ->
    ?scale:float ->
    ?seed:int ->
    ?iterations:int ->
    ?chunk_objs:int ->
    ?pages:string ->
    workload:string ->
    technique:string ->
    unit ->
    t
  (** Defaults: [scale] {!default_scale}, [seed]
      {!Repro_workloads.Workload.default_seed}, no overrides. *)

  val of_job : Job.t -> t
  (** The spec that {!resolve}s back to an equal job (same {!Job.key}).
      Jobs carrying a custom GPU config, sanitizer, or telemetry lose
      those — specs describe cacheable measurement jobs only. *)

  val scale_error : float -> string option
  (** [Some msg] unless [scale] is finite and > 0: the rule {!to_params}
      applies, for front ends that take a scale before any spec exists. *)

  val count_error : string -> int -> string option
  (** [count_error name n] is [Some msg] naming [name] when [n < 1]: the
      rule {!to_params} applies to [iterations] and [chunk_objs]. *)

  val to_params :
    t -> (Repro_workloads.Workload.params, string) result
  (** Range-check the numbers — [scale] finite and > 0, [iterations]
      and [chunk_objs] >= 1 when given — then resolve the technique and
      allocator-family names and build measurement params with
      {!Job.params} (no sanitizer, no telemetry). [Error] names the bad
      field. Every spec the CLI or the wire resolves passes through
      here. *)

  val resolve : t -> (Job.t, string) result
  (** Resolve both names. [Error] reads like ["unknown workload \"GOLF\";
      valid workloads: ..."], matching the CLI's wording. *)

  val to_json : t -> Repro_obs.Json.t

  val decoder : t Repro_obs.Json.Decode.decoder
  (** Requires [workload] and [technique]; the numeric fields default as
      in {!make}. Fields of removed features: [intra: true] fails (the
      sliced intra-launch model is gone, and answering with the shared-L2
      result would return another model's numbers); [intra: false], the
      removed heap-size hint and [intern] decode as if absent. *)

  val equal : t -> t -> bool

  val label : t -> string
  (** ["workload [technique]"], for progress lines. *)
end

(** {2 Requests} *)

type t =
  | Submit of { id : string; cache : bool; specs : Spec.t list }
      (** Run a batch. [id] is the client's correlation handle, echoed on
          every response about this batch. [cache] asks the daemon to
          serve/store the shared on-disk cache for these jobs. *)
  | Query of Spec.t
      (** Probe the result cache without scheduling anything. *)
  | Invalidate of Spec.t option
      (** Drop one cached entry, or with [None] the whole cache. *)
  | Stats
      (** Scheduler counters (dedup hits, queue depth, ...) — and, when
          the daemon runs with observability on, the {!Repro_obs.Svc_metrics}
          snapshot and per-stage latency histograms. *)
  | Health
      (** One-line liveness probe: uptime, schema version, worker count,
          queue depths. Never schedules work. *)
  | Trace_dump
      (** The daemon's span ring rendered as Chrome trace-event JSON
          (Perfetto-loadable); an [Error] when tracing is off. *)
  | Ping
  | Shutdown

val to_json : t -> Repro_obs.Json.t

val of_json : Repro_obs.Json.t -> (t, string) result
(** Checks the envelope ([v] must equal {!schema_version}, [type] must
    be known) before the payload; errors name the offending field. *)

val to_line : t -> string
(** Compact one-line JSON, newline {e not} included. *)

val of_line : string -> (t, string) result
