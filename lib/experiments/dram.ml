module W = Repro_workloads
module Series = Repro_report.Series
module Metric = Repro_obs.Metric

let points sweep =
  Figview.metric_points sweep (fun r ->
      Metric.to_float Metric.dram_sectors r.W.Harness.stats)
  |> Series.mean_row ~label:"AVG"

let series sweep =
  Series.make ~name:"dram"
    ~title:"DRAM traffic: 32 B sectors consumed (fills and write-through \
            store misses)"
    ~aggregate:"AVG" (points sweep)
