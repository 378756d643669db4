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
    launch). Counters (instructions, transactions, hits, stalls) are
    accumulated into [stats]; the caller adds the returned cycles.

    When [telemetry] carries a sampler the caller must bracket the run
    with [Sampler.begin_launch]/[finish_launch]; counters then flow into
    the sampler's per-window rows instead of [stats] (fold the rows to
    get the launch totals — bit-exact by construction). When it carries
    a ring, warp stall intervals are recorded as events (memory-system
    events come from {!Mem_path}, whose ring must be set separately).
    This is the telemetry loop and the reference {!run_fused} is tested
    against; every telemetry-off launch replays through {!run_fused}. *)

val run_fused :
  Config.t -> Mem_path.t -> stats:Stats.t -> traces:Trace.t array -> float
(** [run]'s fused twin: the same event order and the same float
    operations in the same sequence — cycles and every counter are
    byte-identical to [run]'s — with the per-instruction call chain
    (trace accessors, [Cache.access], the [Mem_path] hierarchy walk,
    the event heap) inlined over state hoisted once per launch, and
    scalar counters flushed to [stats] in one exact integer add per
    launch. A translation model attached to the memory path is priced
    exactly as {!Mem_path.load_soa}/{!Mem_path.store_soa} price it, with
    the page-table and TLB lookups inlined over state hoisted once per
    launch. [Device] replays every telemetry-off launch here; [run]
    remains the telemetry loop and the reference. Raises
    [Invalid_argument] when a telemetry ring is attached to the memory
    path. *)

val run_sharded :
  Config.t -> shards:Mem_path.t array -> jobs:int -> stats:Stats.t ->
  traces:Trace.t array -> float
(** Intra-launch sharded timing: SM [s] replays its warps ([s, s+n_sms,
    ...], the sequential engine's dealing, in the same order) against
    [shards.(s)] with {!run_fused}. Each shard is a plain memory path
    built from {!Config.slice} — its own L1 plus a private [1/n_sms]
    slice of L2 capacity and L2/DRAM bandwidth.
    Shards are independent, so they replay on up to [jobs] domains; the
    per-SM stats are merged into [stats] in SM order and the returned
    completion time is the slowest shard's. The result is deterministic
    and byte-identical for every [jobs] value, but the statically-sliced
    memory system is a (documented) modelling deviation from the
    shared-L2 sequential engine, which is why the sharded engine is
    opt-in and recorded in job keys. [shards] must have length [n_sms]
    and persists across launches (the L2 slices keep their tag state,
    like the sequential L2). *)
