(** Phase-2 timing: the quantized event-driven warp scheduler.

    All SMs are co-simulated in one event loop because they contend for
    the shared L2 and DRAM. Each SM owns an issue clock (bounding its
    instructions per cycle), an LSU/L1 (via {!Mem_path}) and a residency
    limit: warps beyond [max_warps_per_sm] wait and activate as resident
    warps retire — the wave behaviour of a real launch.

    Blocking instructions stall their warp until completion; the stall
    (completion minus issue) is attributed to the instruction's label,
    which is how the Figure 1b latency breakdown is measured. *)

val run :
  ?telemetry:Telemetry.t ->
  Config.t -> Mem_path.t -> stats:Stats.t -> traces:Trace.t array -> float
(** Simulate one kernel launch whose warp [i] executes [traces.(i)] on SM
    [i mod n_sms]; returns the completion time in cycles (0. for an empty
    launch). Counters (instructions, transactions, hits, stalls, TLB
    outcomes) are accumulated into [stats]; the caller adds the returned
    cycles. DESIGN.md §4 states the arithmetic; [test/ref_model.ml] is an
    independent implementation of it that this loop is tested against.

    This is the only replay loop. Telemetry hooks are specialised once
    per launch: when [telemetry] carries a sampler the caller must
    bracket the run with [Sampler.begin_launch]/[finish_launch], and
    counters then flow into the sampler's per-window rows instead of
    [stats] (fold the rows to get the launch totals — bit-exact by
    construction). When it carries a ring, warp stall intervals and
    every sector transaction (TLB walks, L1, L2, DRAM) are recorded as
    events. Allocation-free per instruction in every mode. *)

val run_fused :
  Config.t -> Mem_path.t -> stats:Stats.t -> traces:Trace.t array -> float
(** [run] without telemetry, under the name the benchmark harness
    ([bench/perf]) still calls. *)
