module W = Repro_workloads
module Series = Repro_report.Series
module Metric = Repro_obs.Metric
module Table = Repro_report.Table

let points sweep =
  Figview.metric_points sweep (fun r ->
      Metric.to_float Metric.instructions_total r.W.Harness.stats)
  |> Series.normalize_to ~baseline:"SHARD"
  |> Series.mean_row ~label:"AVG"

let series sweep =
  Series.make ~name:"fig7"
    ~title:"Figure 7: total warp instructions normalized to SharedOA"
    ~aggregate:"AVG" (points sweep)

let class_metric = function
  | `Mem -> Metric.instructions_mem
  | `Compute -> Metric.instructions_compute
  | `Ctrl -> Metric.instructions_ctrl

let breakdown sweep =
  let columns = Sweep.columns sweep in
  List.map
    (fun workload ->
      let base =
        Sweep.get sweep ~workload ~technique:Repro_core.Technique.Shared_oa
      in
      let total = Metric.to_float Metric.instructions_total base.W.Harness.stats in
      ( Figview.short_group workload,
        List.map
          (fun column ->
            let r = Sweep.get_column sweep ~workload ~column in
            let part cls =
              Metric.to_float (class_metric cls) r.W.Harness.stats /. total
            in
            (Sweep.column_name column, (part `Mem, part `Compute, part `Ctrl)))
          columns ))
    (Sweep.workload_names sweep)

let breakdown_series sweep =
  Series.make ~name:"fig7.breakdown"
    ~title:"Figure 7: warp instructions normalized to SharedOA (breakdown by class)"
    (List.concat_map
       (fun (workload, rows) ->
         List.concat_map
           (fun (tech, (m, c, k)) ->
             [
               { Series.group = workload; series = tech ^ ":MEM"; value = m };
               { Series.group = workload; series = tech ^ ":COMPUTE"; value = c };
               { Series.group = workload; series = tech ^ ":CTRL"; value = k };
             ])
           rows)
       (breakdown sweep))

let render sweep =
  let table =
    Table.create
      ~columns:
        [ ("workload", Table.Left); ("technique", Table.Left); ("MEM", Table.Right);
          ("COMPUTE", Table.Right); ("CTRL", Table.Right); ("total", Table.Right) ]
  in
  List.iter
    (fun (workload, rows) ->
      List.iter
        (fun (tech, (m, c, k)) ->
          Table.add_row table
            [ workload; tech; Table.cell_f m; Table.cell_f c; Table.cell_f k;
              Table.cell_f (m +. c +. k) ])
        rows;
      Table.add_separator table)
    (breakdown sweep);
  let totals = points sweep in
  let avg =
    String.concat "  "
      (List.map
         (fun c ->
           let name = Sweep.column_name c in
           Printf.sprintf "%s=%.2f" name (Figview.geomean_of totals ~series:name))
         (Sweep.columns sweep))
  in
  "Figure 7: warp instructions normalized to SharedOA (breakdown by class)\n"
  ^ Table.render table ^ "AVG total: " ^ avg ^ "\n"
