(** The wire form of a measurement result, shared by the serve protocol
    ({!Response}) and the on-disk result cache ({!Cache}), which sits
    below it.

    A {!Repro_workloads.Harness.run}'s totals round-trip through
    {!run_to_json}/{!run_decoder} bit-exactly: integer counters are
    carried as JSON ints and float counters in {!Repro_obs.Json}'s
    shortest-round-trip representation, so a decoded run holds the same
    [stats], bit for bit, as the run that was encoded (tests pin this
    field by field). Per-launch detail is not carried: a run read from
    the wire or the cache has [kernel_stats = []] (an older peer's
    [kernel_stats] key is skipped), and only an in-process run
    ([repro profile]) has them. Telemetry payloads (window rows, event
    rings) are not carried either — only plain measurement jobs
    ({!Job.cacheable}) travel this way, and they never have them. *)

val run_to_json : Repro_workloads.Harness.run -> Repro_obs.Json.t

val run_decoder : Repro_workloads.Harness.run Repro_obs.Json.Decode.decoder

val encode : Repro_workloads.Harness.run -> string
(** [Json.to_string (run_to_json run)]: the compact text a cache entry
    stores and a [job_done] or [queried] line carries as its [run]. *)

val decode : string -> (Repro_workloads.Harness.run, string) result
(** Parse and decode {!encode}'s text; [Error] names the parse offset or
    the offending field. *)
