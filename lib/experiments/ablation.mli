(** Ablations over the design choices the paper discusses but does not
    plot:

    - TypePointer prototype (software masks at member references) vs the
      proposed hardware MMU (Sec. 6.3: "we find [the overhead] to be
      insignificant" — at the paper's member-access densities);
    - TypePointer's byte-offset tag encoding vs the padded-index encoding
      that scales to 32 K types (Sec. 6.2: costs one extra multiply-add
      and vTable padding). *)

type row = {
  name : string;
  baseline_cycles : float;
  variant_cycles : float;
  delta : float;  (** variant/baseline - 1, positive = slower. *)
}

val tp_columns : Sweep.column list
(** TypePointer with the hardware MMU, then the software-mask
    prototype, both on SharedOA. *)

val tp_prototype_vs_hw : Sweep.t -> row list
(** One row per workload of a sweep over {!tp_columns}, in sweep order:
    the prototype's cycles against the hardware MMU's. *)

val tp_encoding : ?n_objects:int -> ?n_types:int -> unit -> row
(** Microbenchmark: byte-offset vs padded-index tags. *)

type study = { name : string; title : string; rows : row list }

val studies : Sweep.t -> study list
(** [ablation.mmu], {!tp_prototype_vs_hw} over a sweep of
    {!tp_columns}, then [ablation.encoding], one {!tp_encoding} run. *)

val series : study -> Repro_report.Series.t
(** Per row, its ["baseline"] and ["variant"] cycles and its
    ["overhead"] ({!row.delta}). *)

val render : study -> string
(** The study's title, then one table row per {!row}. *)
