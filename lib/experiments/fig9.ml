module W = Repro_workloads
module Series = Repro_report.Series
module Metric = Repro_obs.Metric

let points sweep =
  Figview.metric_points sweep (fun r ->
      Metric.to_float Metric.l1_hit_rate r.W.Harness.stats)
  |> Series.mean_row ~label:"AVG"

let series sweep =
  Series.make ~name:"fig9"
    ~title:"Figure 9: L1 cache hit rate (fraction of load sectors)"
    ~aggregate:"AVG" (points sweep)
