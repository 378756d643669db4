(** The benchmark's metric registry: name, unit, direction and
    regression bound of every metric [perf.exe] reports. [BENCHMARK.json]
    at the repository root mirrors it, and a test keeps the two equal. *)

type better = Higher | Lower

type def = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;
      (** Share of the parent's median by which the metric may worsen
          before a change counts as a regression; [None] for per-layer
          metrics, which carry no bound. *)
}

val end_to_end : def list
(** Reported by an untraced run ([--trace 0]), in this order. *)

val per_layer : def list
(** Reported by a traced run ([--trace 1]), in this order. *)

val stages : string list
(** The daemon's request stages ({!Repro_obs.Svc_metrics.stage_names}),
    one [exec.stage.<name>_ms] metric each. *)

val find : string -> def option

val better_name : better -> string
(** ["higher"] or ["lower"], as spelled in [BENCHMARK.json]. *)
