(** Table 1: global accesses required per virtual call, per technique.

    The paper's table is analytic (Acc ∝ NumObjects for CUDA's vTable*
    load, ∝ NumTypes for COAL's lookup, 0 for TypePointer). We print the
    analytic table and validate it with measured counters: per-call
    global load transactions attributed to each dispatch step. *)

val analytic : string
(** The paper's table, verbatim. *)

type measured = {
  technique : string;
  get_vtable_per_kcall : float;
      (** Transactions for step A (or its replacement) per 1000 warp
          calls. *)
  get_vfunc_per_kcall : float;  (** Step B. *)
}

val measure : Sweep.t -> measured list
(** Averaged over the sweep's workloads. *)

val series : Sweep.t -> Repro_report.Series.t
(** {!measure}: ["vTable"] (step A) and ["vFunc"] (step B) per technique. *)

val render : Sweep.t -> string
