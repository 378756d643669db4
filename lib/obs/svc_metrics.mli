(** Service-level metrics for the serve daemon, in the style of
    {!Metric}: every counter the daemon keeps is a registry entry with a
    stable dotted id, a kind, units and a storage slot, declared exactly
    once — so [ctl stats], its JSON export and the tests all read one
    surface, and a new counter is one new line.

    {!t} is the live state: one unboxed value per entry plus one {!Hist}
    per request stage ({!stage_names}), all written by the daemon's
    event thread alone. The daemon always keeps one, observability on or
    off, and it is the only owner of the job counters. A {!snapshot} is a
    copy of the values that shares nothing with the live state. *)

(** {2 The registry} *)

type kind = Counter | Gauge
type value = Int of int | Float of float

type metric

val name : metric -> string
(** Stable dotted id, e.g. ["cache.stampede_avoided"]. *)

val kind : metric -> kind
val units : metric -> string

val jobs_submitted : metric  (* job submissions accepted *)
val jobs_executed : metric   (* jobs measured on a worker *)
val dedup_hits : metric      (* submissions attached to an in-flight job *)
val cache_hits : metric      (* submissions served from the result cache *)
val cache_misses : metric    (* cache-enabled executions that had to run *)

val stampede_avoided : metric
(** Dedup hits on cache-enabled entries: submissions that would have
    raced a cold cache without the in-flight table. *)

val requests : metric        (* request lines answered to completion *)
val slow_requests : metric   (* requests at or above the slow threshold *)
val responses : metric       (* response lines written *)
val decode_errors : metric   (* request lines that failed to decode *)
val bytes_in : metric
val bytes_out : metric
val worker_busy_s : metric   (* summed execution wall time; a [Float] *)
val sessions : metric        (* gauge: connected clients *)
val queue_depth : metric     (* gauge: jobs queued across all sessions *)
val inflight : metric        (* gauge: in-flight table size *)
val jobs_running : metric    (* gauge: jobs on workers *)

val all : metric list
(** Every entry above, in declaration order — the order of
    {!to_json}'s keys. *)

val find : string -> metric option

(** {2 Live state} *)

type t

val create : unit -> t
(** Every value zero, every stage histogram empty. *)

val add : t -> metric -> int -> unit
val incr : t -> metric -> unit
val add_float : t -> metric -> float -> unit

val set : t -> metric -> int -> unit
(** Overwrite a gauge. All four updates are allocation-free. *)

(** The stages of a request's life, decode to final response;
    [Request] is end-to-end and counts once per request line. *)
type stage = Decode | Queued | Dedup_wait | Cache_probe | Run | Encode | Request

val stage_index : stage -> int
(** The stage's position in {!stage_names}: the index of its histogram
    and the [kind] of its spans in the daemon's event ring. *)

val stage_names : string list
(** [["decode"; "queued"; "dedup_wait"; "cache_probe"; "run"; "encode";
    "request"]], in {!stage_index} order. *)

val stage_name : int -> string
(** The name at an index of {!stage_names}; raises [Invalid_argument]
    out of range. *)

val stage_hist : t -> stage -> Hist.t

val stage : t -> string -> Hist.t
(** The histogram for one of {!stage_names}; raises [Not_found] on any
    other name. *)

val null_clock : unit -> float
(** The daemon's clock when observability is off: always [0.], no
    syscall, no allocation. *)

(** {2 Snapshots} *)

type snapshot

val snapshot : t -> snapshot
(** Copy every value; the live state may keep counting. *)

val zero : snapshot
(** Every value zero. *)

val value : metric -> snapshot -> value

val count : metric -> snapshot -> int
(** The value as an integer ([Float] values truncate). *)

(** {2 Wire form} — carried inside the [server_stats] response. *)

val to_json : snapshot -> Json.t
(** Object keyed by registry id, registry order; round-trips exactly
    through {!decoder}. *)

val decoder : snapshot Json.Decode.decoder
(** Lenient to missing ids (they default to zero), so the form can grow
    without a schema bump. *)
