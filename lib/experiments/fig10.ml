module W = Repro_workloads
module T = Repro_core.Technique
module Series = Repro_report.Series

let chunk_sizes = [ 128; 512; 2048; 8192; 32768; 131072 ]

type point = {
  workload : string;
  chunk_objs : int;
  perf_vs_cuda : float;
  fragmentation : float;
}

let cuda = Sweep.column T.Cuda

let coal chunk_objs = Sweep.column ~chunk_objs T.Coal

(* Per workload: one CUDA reference cell plus one COAL cell per chunk
   size. *)
let columns = cuda :: List.map coal chunk_sizes

let points sweep =
  List.concat_map
    (fun workload ->
      let base = Sweep.get_column sweep ~workload ~column:cuda in
      List.map
        (fun chunk ->
          let r = Sweep.get_column sweep ~workload ~column:(coal chunk) in
          {
            workload = Figview.short_group workload;
            chunk_objs = chunk;
            perf_vs_cuda = base.W.Harness.cycles /. r.W.Harness.cycles;
            fragmentation =
              Repro_core.Allocator.external_fragmentation r.W.Harness.alloc_stats;
          })
        chunk_sizes)
    (Sweep.workload_names sweep)

let chunk_label c = if c >= 1024 then Printf.sprintf "%dK" (c / 1024) else string_of_int c

let points_of select ps =
  List.map
    (fun p ->
      { Series.group = p.workload; series = chunk_label p.chunk_objs; value = select p })
    ps

let series_perf ps =
  Series.make ~name:"fig10a"
    ~title:"Figure 10a: COAL performance vs CUDA across initial chunk sizes (objects)"
    (points_of (fun p -> p.perf_vs_cuda) ps)

let series_frag ps =
  Series.make ~name:"fig10b"
    ~title:"Figure 10b: SharedOA external fragmentation across initial chunk sizes"
    ~aggregate:"AVG"
    (Series.mean_row ~label:"AVG" (points_of (fun p -> p.fragmentation) ps))
