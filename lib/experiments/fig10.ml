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

let run ?(scale = Sweep.default_scale) ?(j = 1) ?(cache = false) ?cache_dir
    ?(workloads = W.Registry.all) () =
  (* Per workload: one CUDA reference job plus one COAL job per chunk
     size, all independent — a natural fit for the executor. *)
  let jobs =
    List.concat_map
      (fun w ->
        let params technique chunk_objs =
          { (W.Workload.default_params technique) with W.Workload.scale; chunk_objs }
        in
        Repro_exec.Job.make w (params T.Cuda None)
        :: List.map
             (fun chunk -> Repro_exec.Job.make w (params T.Coal (Some chunk)))
             chunk_sizes)
      workloads
  in
  let outcomes = Repro_exec.Executor.run ~jobs:j ~cache ?cache_dir jobs in
  let per_workload = 1 + List.length chunk_sizes in
  List.concat
    (List.mapi
       (fun wi w ->
         let result k =
           Repro_exec.Executor.ok_exn
             (List.nth outcomes ((wi * per_workload) + k))
         in
         let cuda = result 0 in
         List.mapi
           (fun ci chunk ->
             let coal = result (ci + 1) in
             if coal.W.Harness.checksum <> cuda.W.Harness.checksum then
               failwith ("Fig10: functional mismatch on " ^ coal.W.Harness.workload);
             {
               workload = Figview.short_group (W.Registry.qualified_name w);
               chunk_objs = chunk;
               perf_vs_cuda = cuda.W.Harness.cycles /. coal.W.Harness.cycles;
               fragmentation =
                 Repro_core.Allocator.external_fragmentation coal.W.Harness.alloc_stats;
             })
           chunk_sizes)
       workloads)

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
