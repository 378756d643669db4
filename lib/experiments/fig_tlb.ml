module W = Repro_workloads
module Stats = Repro_gpu.Stats
module Series = Repro_report.Series
module Policy = Repro_vm.Policy

let policies = [ Policy.Flat_4k; Policy.Flat_2m; Policy.Coalesce ]

type t = (Policy.t * Sweep.t) list

let run ?scale ?iterations ?j ?cache ?cache_dir ?(progress = fun _ -> ())
    ?memo ?workloads ?columns () =
  List.map
    (fun policy ->
      ( policy,
        Sweep.exec ?scale ?iterations ?j ?cache ?cache_dir
          ~progress:(fun label ->
            progress (Printf.sprintf "%s pages=%s" label (Policy.name policy)))
          ?memo ?workloads ?columns ~pages:policy () ))
    policies

let walk_overhead_pct (r : W.Harness.run) =
  let c = Stats.cycles r.W.Harness.stats in
  if c <= 0. then 0. else 100. *. Stats.tlb_walk_cycles r.W.Harness.stats /. c

let sweep_of t policy =
  match List.assoc_opt policy t with
  | Some s -> s
  | None -> invalid_arg "Fig_tlb.sweep_of: policy was not measured"

let points t policy =
  Figview.metric_points (sweep_of t policy) walk_overhead_pct
  |> Series.mean_row ~label:"AVG"

let series_of t policy =
  Series.make
    ~name:("tlb." ^ Policy.name policy)
    ~title:
      (Printf.sprintf
         "Address translation: page-walk overhead (%% of cycles) under %s \
          pages"
         (Policy.name policy))
    ~aggregate:"AVG" (points t policy)

let series t = List.map (fun (policy, _) -> series_of t policy) t
