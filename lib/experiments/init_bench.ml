module W = Repro_workloads
module T = Repro_core.Technique
module A = Repro_core.Alloc_family
module Table = Repro_report.Table
module Series = Repro_report.Series

type row = {
  workload : string;
  objects : int;
  cuda_cycles : float;
  shared_oa_cycles : float;
  dyna_cycles : float;
  speedup : float;       (* SharedOA vs device-side new *)
  dyna_speedup : float;  (* DynaSOAr-SoA vs device-side new *)
}

let alloc_cycles (r : W.Harness.run) = r.W.Harness.alloc_stats.Repro_core.Allocator.alloc_cycles

let dyna = Sweep.column ~alloc:A.Dyna_soa T.Cuda

let columns = [ Sweep.column T.Cuda; Sweep.column T.Shared_oa; dyna ]

let rows sweep =
  List.map
    (fun workload ->
      let cuda = Sweep.get sweep ~workload ~technique:T.Cuda in
      let shared = Sweep.get sweep ~workload ~technique:T.Shared_oa in
      let soa = Sweep.get_column sweep ~workload ~column:dyna in
      {
        workload = Figview.short_group workload;
        objects = shared.W.Harness.n_objects;
        cuda_cycles = alloc_cycles cuda;
        shared_oa_cycles = alloc_cycles shared;
        dyna_cycles = alloc_cycles soa;
        speedup = alloc_cycles cuda /. alloc_cycles shared;
        dyna_speedup = alloc_cycles cuda /. alloc_cycles soa;
      })
    (Sweep.workload_names sweep)

let geomean_speedup rows = Repro_util.Mathx.geomean (List.map (fun r -> r.speedup) rows)

let geomean_dyna_speedup rows =
  Repro_util.Mathx.geomean (List.map (fun r -> r.dyna_speedup) rows)

let series rows =
  Series.make ~name:"init"
    ~title:"Initialization (Sec. 8.2): allocation-phase speedup over device-side new"
    ~aggregate:"GM"
    (List.concat_map
       (fun r ->
         [ { Series.group = r.workload; series = "SHARD"; value = r.speedup };
           { Series.group = r.workload; series = "DYNA"; value = r.dyna_speedup } ])
       rows
     |> Series.geomean_row ~label:"GM")

let render rows =
  let table =
    Table.create
      ~columns:
        [ ("workload", Table.Left); ("objects", Table.Right);
          ("device-side alloc (cycles)", Table.Right);
          ("SharedOA alloc (cycles)", Table.Right);
          ("DynaSOA alloc (cycles)", Table.Right); ("speedup", Table.Right);
          ("dyna speedup", Table.Right) ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [ r.workload; string_of_int r.objects; Table.cell_f ~digits:0 r.cuda_cycles;
          Table.cell_f ~digits:0 r.shared_oa_cycles;
          Table.cell_f ~digits:0 r.dyna_cycles; Table.cell_f ~digits:1 r.speedup;
          Table.cell_f ~digits:1 r.dyna_speedup ])
    rows;
  "Initialization (Sec. 8.2): allocation-phase cost, SharedOA and DynaSOA vs \
   device-side new\n"
  ^ Table.render table
  ^ Printf.sprintf "geomean speedup: %.0fx (paper: 80x); dyna: %.0fx\n"
      (geomean_speedup rows) (geomean_dyna_speedup rows)
