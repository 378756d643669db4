module W = Repro_workloads
module Series = Repro_report.Series
module Metric = Repro_obs.Metric

let points sweep =
  Figview.metric_points sweep (fun r ->
      Metric.to_float Metric.load_transactions r.W.Harness.stats)
  |> Series.normalize_to ~baseline:"SHARD"
  |> Series.geomean_row ~label:"GM"

let series sweep =
  Series.make ~name:"fig8"
    ~title:
      "Figure 8: global load transactions normalized to SharedOA (lower is \
       better)"
    ~aggregate:"GM" (points sweep)
