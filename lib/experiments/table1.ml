module W = Repro_workloads
module Metric = Repro_obs.Metric
module Label = Repro_gpu.Label
module T = Repro_core.Technique
module Table = Repro_report.Table
module Series = Repro_report.Series

let analytic =
  String.concat "\n"
    [
      "Table 1: global accesses per virtual call (analytic, as in the paper)";
      "  Operation      CUDA                 COAL                TypePointer";
      "  A Get vTable*  Acc ~ NumObjects     Acc ~ NumTypes      0 Acc";
      "  B Get vFunc*   Acc ~ NumTypes       Acc ~ NumTypes      Acc ~ NumTypes";
      "  C Call vFunc*  Indirect branch      Indirect branch     Indirect branch";
      "";
    ]

type measured = {
  technique : string;
  get_vtable_per_kcall : float;
  get_vfunc_per_kcall : float;
}

let measure sweep =
  List.map
    (fun (c : Sweep.column) ->
      let runs =
        List.filter
          (fun (r : W.Harness.run) ->
            T.equal r.W.Harness.technique c.Sweep.technique
            && Repro_core.Alloc_family.equal r.W.Harness.alloc c.Sweep.alloc)
          (Sweep.runs sweep)
      in
      let per_kcall label =
        let metric = Metric.load_transactions_for label in
        let num, den =
          List.fold_left
            (fun (num, den) (r : W.Harness.run) ->
              ( num +. Metric.to_float metric r.W.Harness.stats,
                den + r.W.Harness.warp_vcalls ))
            (0., 0) runs
        in
        if den = 0 then 0. else 1000. *. num /. float_of_int den
      in
      {
        technique = Sweep.column_name c;
        get_vtable_per_kcall =
          per_kcall Label.Vtable_load
          +. per_kcall Label.Coal_lookup
          +. per_kcall Label.Concord_tag;
        get_vfunc_per_kcall = per_kcall Label.Vfunc_load;
      })
    (Sweep.columns sweep)

let series sweep =
  Series.make ~name:"table1"
    ~title:"Table 1: global load transactions per 1000 warp-level virtual calls"
    ~group_label:"technique"
    (List.concat_map
       (fun m ->
         [ { Series.group = m.technique; series = "vTable";
             value = m.get_vtable_per_kcall };
           { Series.group = m.technique; series = "vFunc";
             value = m.get_vfunc_per_kcall } ])
       (measure sweep))

let render sweep =
  let table =
    Table.create
      ~columns:
        [ ("technique", Table.Left);
          ("A: get-type transactions / kcall", Table.Right);
          ("B: get-vFunc transactions / kcall", Table.Right) ]
  in
  List.iter
    (fun m ->
      Table.add_row table
        [ m.technique;
          Table.cell_f ~digits:0 m.get_vtable_per_kcall;
          Table.cell_f ~digits:0 m.get_vfunc_per_kcall ])
    (measure sweep);
  analytic ^ "Measured (per 1000 warp-level virtual calls, sweep average):\n"
  ^ Table.render table
