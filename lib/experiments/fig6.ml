module W = Repro_workloads
module Series = Repro_report.Series

let points sweep =
  Figview.metric_points sweep (fun r -> r.W.Harness.cycles)
  |> Series.normalize_to ~baseline:"SHARD"
  |> Series.invert
  |> Series.geomean_row ~label:"GM"

let series sweep =
  Series.make ~name:"fig6"
    ~title:"Figure 6: performance normalized to SharedOA (higher is better)"
    ~aggregate:"GM" (points sweep)
