(** Opt-in on-disk result cache, one file per job keyed by {!Job.hash}.

    Lets [repro figure 6] followed by [repro figure 7] measure once: both
    draw from the same sweep, and the second invocation replays it from
    disk. Strictly best-effort — any I/O or decode problem reads as a
    miss and never fails the sweep.

    An entry holds the run in its wire form ({!Run_wire.encode}) behind a
    one-line header: a format tag, [Job.schema_version], the payload's
    length and MD5, then the full job key on its own line. A hit is
    checked from the header alone — tag, version, key, length and digest
    must all match — so the serve daemon hands a hit's payload to the
    client without parsing it ({!lookup_text}), and anything torn,
    flipped, foreign or from another format version is a miss that the
    next store overwrites.

    Invalidation rule: the file name digests the full job key (workload,
    technique variant, scale, seed, iterations, chunk size) plus
    [Job.schema_version], which is bumped whenever the entry format or
    the run's wire form changes (a golden entry pins both). Changing any
    measurement parameter therefore misses naturally; stale entries are
    only ever orphaned, never misread. Jobs carrying a custom GPU config
    are never cached ({!Job.cacheable}). *)

val default_dir : unit -> string
(** [$REPRO_CACHE_DIR] if set, else ["_repro_cache"] under the current
    directory. *)

val lookup : dir:string -> Job.t -> Repro_workloads.Harness.run option
(** {!lookup_text} decoded. A torn, truncated or otherwise undecodable
    file reads as a miss. *)

val store : dir:string -> Job.t -> Repro_workloads.Harness.run -> unit
(** {!store_text} of the run's encoding. Atomic (write-to-temp then
    rename): a concurrent {!lookup} sees the whole entry or nothing, and
    concurrent writers of the same job are harmless (last rename wins).
    A failed write cleans up its temp file. *)

val lookup_text : dir:string -> Job.t -> string option
(** The stored payload — the run's {!Run_wire.encode} text — if the
    entry's header checks out; the payload is not parsed. *)

val store_text : dir:string -> Job.t -> string -> unit
(** Store [text], which must be {!Run_wire.encode} of the job's run, as
    {!store} would. *)

val invalidate : dir:string -> Job.t -> bool
(** Drop one job's entry; [true] if a file was removed. *)

val clear : dir:string -> int
(** Delete every cache entry in [dir] (plus orphaned temp files);
    returns how many entries were removed. *)
