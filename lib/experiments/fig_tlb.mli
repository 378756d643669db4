(** TLB figure: per-workload page-walk overhead (percent of run cycles
    spent in modelled page walks) for every sweep column under each of
    the three page-size policies.

    Not a paper figure — it prices the Mosaic-style observation the
    paper's allocators enable: contiguously-placed same-type heaps
    (SharedOA chunks, DynaSOAr block chains) coalesce into large pages,
    so under the [coalesce] policy their walk overhead drops well below
    the CUDA baseline's, whose round-robin slab placement never
    promotes. [flat-4k] and [flat-2m] bound the comparison from both
    sides. *)

val policies : Repro_vm.Policy.t list
(** The three policies, in measurement order. *)

type t
(** One full sweep per policy. *)

val run :
  ?scale:float ->
  ?iterations:int ->
  ?j:int ->
  ?cache:bool ->
  ?cache_dir:string ->
  ?progress:(string -> unit) ->
  ?workloads:Repro_workloads.Workload.t list ->
  ?columns:Sweep.column list ->
  unit -> t
(** Three {!Sweep.exec} calls, one per policy; defaults are the
    sweep's. [progress] labels carry the policy. *)

val walk_overhead_pct : Repro_workloads.Harness.run -> float
(** [100 * tlb.walk_cycles / cycles] of one run. *)

val points : t -> Repro_vm.Policy.t -> Repro_report.Series.point list
(** Per-workload overhead for one policy's sweep, with an AVG row.
    Raises [Invalid_argument] for a policy not in {!policies}. *)

val series : t -> Repro_report.Series.t list
(** One series per policy, named [tlb.<policy>]. *)
