(** The Chrome trace-event writer: renders {!Repro_util.Event_ring}
    events as JSON loadable in Perfetto or [chrome://tracing]. It is the
    one writer for both rings in the system — the simulator's, through
    {!to_json}, and the serve daemon's request-stage ring ([ctl
    trace-dump]) — which differ only in the arguments to {!chrome}. *)

val chrome :
  tracks:(int * string) list ->
  describe:(Repro_util.Event_ring.event -> string * int * (string * Json.t) list) ->
  scale:float ->
  ?counters:Json.t list ->
  meta:(string * Json.t) list ->
  Repro_util.Event_ring.event array ->
  Json.t
(** [{traceEvents: [...], meta...}]: an ["M"] thread-name event per
    [tracks] entry (pairs of thread id and display name), then one ["X"]
    event per ring event, oldest first — [describe] gives its name,
    thread id and [args]; its [ts] and [dur] are multiplied by [scale]
    into the format's microseconds — then [counters] verbatim. [meta]
    supplies the remaining top-level fields (e.g. [displayTimeUnit]). *)

(** {2 The GPU trace}

    Track layout (thread ids within one process): tid [0..n_sms-1] are
    the SMs (stall intervals and L1 accesses), tid [n_sms] is L2, tid
    [n_sms+1] is DRAM, tid [n_sms+2] carries the kernel launch spans,
    tid [n_sms+3] the TLB walks. When a {!Timeline.t} is supplied, its
    derived per-window rates are added as ["C"] counter tracks (IPC, hit
    rates, DRAM sectors per cycle). *)

val to_json :
  ?timeline:Timeline.t ->
  workload:string -> technique:string ->
  Repro_gpu.Telemetry.dump -> Json.t
(** [{traceEvents: [...], displayTimeUnit: "ns"}] — timestamps are in
    simulated cycles, reported through the trace format's microsecond
    field (1 cycle = 1 us) so Perfetto's zooming works unmodified. *)

val validate : Json.t -> (unit, string) result
(** Structural check of the Chrome trace-event format: a [traceEvents]
    list whose entries are objects with a string [name], a [ph] in
    {["X"; "C"; "M"]}, integer [pid]/[tid], a numeric [ts], and — for
    ["X"] phases — a numeric [dur >= 0]. Used by the round-trip tests
    and [repro trace] before writing the file. *)
