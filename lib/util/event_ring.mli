(** The event ring: a pre-sized, drop-oldest, structure-of-arrays buffer
    of typed intervals — the one event buffer behind every Chrome trace
    this repository writes.

    Two writers use it, each with its own vocabulary of [kind]s and its
    own clock domain:

    - the replay loop ([Repro_gpu.Sm]) records warp stall intervals,
      cache, DRAM and TLB transactions in simulated cycles (the kinds
      are [Repro_gpu.Telemetry]'s constants);
    - the serve daemon records request stages in seconds since server
      start ([kind] is the stage's index in
      [Repro_obs.Svc_metrics.stage_names]).

    Recording writes int and float-array slots in place, so it never
    boxes or allocates; when the ring is full the oldest event is
    overwritten and counted as dropped. The ring takes no lock: each
    ring has exactly one writing thread (the replay loop's domain, or
    the daemon's event thread). *)

type t = {
  cap : int;
  kind : int array;
  track : int array;
  arg_a : int array;
  arg_b : int array;
  ts : float array;   (** Absolute time (launch base already added). *)
  dur : float array;
  cells : float array;
  (** [cells.(0)]: the running launch's base time, added to every
      timestamp so multi-launch traces form one timeline;
      [cells.(1)]: max event end time seen since [begin_launch]
      (bounds the kernel span even when store drain outlives the
      last warp). *)
  mutable head : int;      (** Next write index. *)
  mutable len : int;
  mutable dropped : int;   (** Since the last {!take_dropped}. *)
  mutable all_dropped : int;
}
(** The fields are public because the replay loop writes them in place:
    a [record] function taking [ts]/[dur] as arguments would box two
    floats per event. Writers fill the six arrays at index [head], then
    call {!bump}. *)

val create : capacity:int -> t
(** Raises [Invalid_argument] when [capacity <= 0]. *)

val begin_launch : t -> base:float -> unit
(** Set the launch's base time and reset the max-end watermark. *)

val bump : t -> unit
(** Commit the event just written at [head]: advance [head], and
    either grow [len] or count a drop (the oldest event was
    overwritten — drop-oldest spill policy). *)

val record :
  t -> kind:int -> track:int -> a:int -> b:int -> ts:float -> dur:float ->
  unit
(** Writer for cold paths, the daemon and tests ([ts] is relative to the
    launch base; the base is added). The replay loop inlines the stores
    instead. *)

val length : t -> int

val take_dropped : t -> int
(** Drops since the last call (folded into the launch's
    [trace.dropped] counter), resetting the tally. *)

val all_dropped : t -> int
(** Total drops since creation or {!clear}. *)

val max_end : t -> float

val clear : t -> unit

(** {2 Reading back} *)

type event = {
  kind : int;
  track : int;
  arg_a : int;
  arg_b : int;
  ts : float;
  dur : float;
}

val events : t -> event array
(** The buffered events, oldest first. *)
