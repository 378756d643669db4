module W = Repro_workloads
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

let points ?(scale = Sweep.default_scale) ?(j = 1) ?(cache = false) ?cache_dir
    ?(workloads = W.Registry.all) () =
  let params (c : Sweep.column) =
    {
      (W.Workload.default_params c.Sweep.technique) with
      W.Workload.scale;
      alloc =
        (if A.is_default c.Sweep.technique c.Sweep.alloc then None
         else Some c.Sweep.alloc);
    }
  in
  let jobs =
    List.concat_map
      (fun w ->
        List.map (fun c -> Repro_exec.Job.make w (params c)) columns)
      workloads
  in
  let outcomes = Repro_exec.Executor.run ~jobs:j ~cache ?cache_dir jobs in
  let runs = List.map Repro_exec.Executor.ok_exn outcomes in
  let n = List.length columns in
  let rec groups = function
    | [] -> []
    | rest ->
      List.filteri (fun i _ -> i < n) rest
      :: groups (List.filteri (fun i _ -> i >= n) rest)
  in
  List.concat
    (List.map2
       (fun w group ->
         W.Harness.validate_equal group;
         let gname = Figview.short_group (W.Registry.qualified_name w) in
         List.map
           (fun (r : W.Harness.run) ->
             {
               Series.group = gname;
               series = A.column_name r.W.Harness.technique r.W.Harness.alloc;
               value = r.W.Harness.cycles;
             })
           group)
       workloads (groups runs))
  |> Series.normalize_to ~baseline:"CUDA"
  |> Series.invert
  |> Series.geomean_row ~label:"GM"

let series points =
  Series.make ~name:"fig11"
    ~title:
      "Figure 11: TypePointer and DynaSOAr-SoA on the default CUDA \
       allocator (simulation), normalized to CUDA"
    ~aggregate:"GM" points
