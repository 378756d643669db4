(** Table 2: workload characteristics — object instances, types, virtual
    functions and dynamic virtual calls per thousand instructions,
    measured on the CUDA-technique runs (plus the paper's object counts
    for scale reference). *)

type row = {
  workload : string;
  suite : string;
  description : string;
  objects : int;
  paper_objects : int;
  types : int;
  vfuncs : int;
  vfunc_pki : float;
}

val rows : Sweep.t -> row list

val series : Sweep.t -> Repro_report.Series.t
(** {!rows}: objects, paper objects, types, vfuncs and vFuncPKI. *)

val render : Sweep.t -> string
