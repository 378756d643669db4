(** Chrome trace-event exporter: renders a {!Repro_gpu.Telemetry.dump}
    as JSON loadable in Perfetto or [chrome://tracing].

    Track layout (thread ids within one process): tid [0..n_sms-1] are
    the SMs (stall intervals and L1 accesses), tid [n_sms] is L2, tid
    [n_sms+1] is DRAM, tid [n_sms+2] carries the kernel launch spans.
    Thread names are emitted as ["M"] metadata events so Perfetto labels
    the tracks. When a {!Timeline.t} is supplied, its derived per-window
    rates are added as ["C"] counter tracks (IPC, hit rates, DRAM
    sectors per cycle). *)

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

(** {2 Span ring} — the serve daemon's request-stage spans.

    A bounded, drop-oldest ring of named spans, the service-side
    counterpart of {!Repro_gpu.Telemetry}'s event ring: pre-sized
    flat arrays (one per span component), so {!Ring.record} allocates
    nothing on the request path; overflow overwrites the oldest span and
    is tallied, never grows. Writers from the daemon's event thread and
    worker Domains are serialized by an internal mutex. *)

module Ring : sig
  type span = {
    name : string;   (** stage, e.g. ["run"] — callers pass literals *)
    track : int;     (** 0 = event thread, 1..W = worker Domains *)
    trace : int;     (** request trace id *)
    ts : float;      (** seconds since server start *)
    dur : float;     (** seconds *)
  }

  type t

  val create : capacity:int -> t
  (** [capacity] is clamped to at least 1. *)

  val record :
    t -> name:string -> track:int -> trace:int -> ts:float -> dur:float ->
    unit
  (** Allocation-free. *)

  val recorded : t -> int
  (** Spans ever recorded (including overwritten ones). *)

  val dropped : t -> int
  (** [max 0 (recorded - capacity)]. *)

  val dump : t -> span list
  (** Surviving spans, oldest first. *)
end

val spans_to_json : ?tracks:(int * string) list -> Ring.span list -> Json.t
(** Chrome trace-event JSON (loads in Perfetto, passes {!validate}):
    one ["X"] event per span — [ts]/[dur] in microseconds, the trace id
    in [args.trace] — plus ["M"] thread-name metadata for [tracks]
    (pairs of track id and display name). *)
