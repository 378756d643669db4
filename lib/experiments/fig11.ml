module T = Repro_core.Technique
module A = Repro_core.Alloc_family
module Series = Repro_report.Series

(* The CUDA-allocator study: TypePointer over the default device heap
   (the paper's Fig. 11) plus the DYNA column — CUDA dispatch over
   DynaSOAr SoA blocks — the other way to restructure that heap. *)
let columns =
  [
    Sweep.column T.Cuda;
    Sweep.column T.type_pointer_on_cuda;
    Sweep.column ~alloc:A.Dyna_soa T.Cuda;
  ]

let points sweep =
  Figview.metric_points sweep (fun r -> r.Repro_workloads.Harness.cycles)
  |> Series.normalize_to ~baseline:"CUDA"
  |> Series.invert
  |> Series.geomean_row ~label:"GM"

let series sweep =
  Series.make ~name:"fig11"
    ~title:
      "Figure 11: TypePointer and DynaSOAr-SoA on the default CUDA \
       allocator (simulation), normalized to CUDA"
    ~aggregate:"GM" (points sweep)
