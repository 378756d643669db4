(** Simulation-engine configuration: one switch over the timing phase,
    plus one runtime knob.

    - [intra] — intra-launch sharded timing (phase 2): each SM replays
      independently against a private slice of the memory system
      (1/n_sms of the L2 and of the L2/DRAM bandwidth; see
      {!Config.slice}) and the per-SM stats are merged in SM order.
      Deterministic by construction and independent of [intra_jobs], but
      a {e different timing model} from the shared-L2 sequential engine
      (sharding an LRU cache and a global bandwidth clock exactly would
      reintroduce the cross-SM ordering the parallelism removes), so it
      is off by default and recorded in job keys and wire specs.

    - [intra_jobs] — how many domains replay the shards; [<= 0] means
      [Repro_util.Pool.available_workers ()]. Never affects results. *)

type t = {
  intra : bool;       (** sliced intra-launch parallel timing (default [false]) *)
  intra_jobs : int;   (** domains for [intra]; [<= 0] = auto. Results-neutral. *)
}

val default : t

val resolve_jobs : t -> int
(** [intra_jobs] with the auto default applied. *)
