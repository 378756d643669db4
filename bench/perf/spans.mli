(** The benchmark's own spans: kept in memory while a run measures,
    written once at the end as Chrome trace-event JSON (loadable in
    Perfetto, valid under {!Repro_obs.Tracer.validate}), and read back
    to compute each span name's self time. Every span carries its id
    and its parent's id in [args], so self time is recoverable from the
    file alone. *)

type t
(** One recorder per thread; recorders never share state except the
    global id counter, so threads record without locks. *)

type span

val epoch : float
(** [Unix.gettimeofday] when the process started: time zero of the
    written trace. *)

val create : tid:int -> t

val start : t -> ?parent:int -> ?args:(string * Repro_obs.Json.t) list -> string -> span
(** Open a span now ([parent] 0 = a root). *)

val stop : span -> unit
(** Close it now. *)

val id : span -> int

val record :
  t -> ?parent:int -> ?args:(string * Repro_obs.Json.t) list -> string ->
  t0:float -> t1:float -> unit
(** A span whose bounds were measured with [Unix.gettimeofday]. *)

val to_chrome :
  pid:int -> threads:(int * string) list -> ?extra:Repro_obs.Json.t list ->
  t list -> Repro_obs.Json.t
(** Every recorder's spans as ["X"] events under [pid] (timestamps in
    microseconds since the process started), thread-name metadata for
    [threads], then [extra] events verbatim (the daemon's own dump). *)

type row = { name : string; count : int; total_s : float; self_s : float }

val self_times : Repro_obs.Json.t -> row list
(** Per span name, in first-appearance order: how many spans, their
    summed duration, and their self time — duration minus the part
    covered by child spans (events whose [args.parent] is the span's
    [args.id]). Events without an [args.id] have no children. *)

val total : row list -> string -> float
(** [total_s] of one name, [0.] when absent. *)
