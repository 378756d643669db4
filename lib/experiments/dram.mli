(** DRAM-traffic companion figure: total 32 B sectors consumed per
    (workload, technique) over the measured region — load fills plus
    write-through store misses ([dram.sectors] in the metric registry).
    Not a paper figure; tracked in the bench trajectory because sector
    counts move whenever the memory path or a technique's access
    pattern changes. *)

val points : Sweep.t -> Repro_report.Series.point list

val series : Sweep.t -> Repro_report.Series.t
