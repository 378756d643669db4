(** The metric registry: every counter {!Repro_gpu.Stats} records, as an
    enumerable value with a stable name and units.

    A metric is an entry of [Stats]' counter table
    ({!Repro_util.Counter_table}), declared once in
    {!Repro_gpu.Stats.Counter} — the same declaration that gives the
    counter its slot and its wire key — or one of the four computed
    views declared next to it. Figures, the profile subcommand, JSON/CSV
    exports and the [repro run] breakdown all enumerate or look up
    metrics here instead of calling per-field getters, so a counter
    added to [Stats] is visible everywhere once declared. *)

type value = Repro_util.Counter_table.value = Int of int | Float of float

type t = Repro_util.Counter_table.entry

val name : t -> string
(** Stable dotted identifier, e.g. ["l1.hits"], ["stall_cycles.vtable_load"]. *)

val units : t -> string

val value : t -> Repro_gpu.Stats.t -> value

val to_float : t -> Repro_gpu.Stats.t -> float

include module type of struct
  include Repro_gpu.Stats.Counter
end
(** One named metric per [Stats] counter (["cycles"],
    ["instructions.mem"], ..., ["tlb.walk_cycles"]), the three families
    and the four computed metrics ({!instructions_total},
    {!l1_hit_rate}, {!l2_hit_rate}, {!stall_cycles_total}). *)

val stall_cycles : Repro_gpu.Label.t -> t
(** ["stall_cycles.<slug>"]. *)

val load_transactions_for : Repro_gpu.Label.t -> t
(** ["load_transactions.<slug>"]. *)

val san_violations_for : Repro_san.Violation.kind -> t
(** ["san_violations.<slug>"]. *)

val scalars : t list
(** The table's scalar counters, in declaration order; the coverage
    test pins their number to the scalar fields of [Stats.to_raw]. *)

val per_label : t list
(** Both label families over {!Repro_gpu.Label.all} — [2 * Label.count]
    metrics. *)

val san : t list
(** The family over {!Repro_san.Violation.kinds}. *)

val counters : t list
(** [scalars @ per_label @ san]: every slot of the table, the additive
    counters. Summing a metric in this list over per-kernel deltas
    yields the run total (the {!Profile.consistent} invariant). *)

val derived : t list
(** The four computed metrics; not additive. *)

val all : t list
(** [counters @ derived]: the key order of every metric JSON export. *)

val find : string -> t option
(** Look up by {!name} in {!all}. *)

val to_json : ?metrics:t list -> Repro_gpu.Stats.t -> Json.t
(** Object mapping metric name to value; [metrics] defaults to {!all}. *)

val pp_value : Format.formatter -> value -> unit

val pp_stats : Format.formatter -> Repro_gpu.Stats.t -> unit
(** Registry-driven full breakdown: one aligned [name value [units]]
    line per metric, omitting per-label, sanitizer, TLB and trace-drop
    entries whose value is zero (a run exercises only its own
    technique's labels). *)
