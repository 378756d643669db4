module W = Repro_workloads
module Table = Repro_report.Table
module Series = Repro_report.Series

type row = {
  workload : string;
  suite : string;
  description : string;
  objects : int;
  paper_objects : int;
  types : int;
  vfuncs : int;
  vfunc_pki : float;
}

let rows sweep =
  List.filter_map
    (fun name ->
      match W.Registry.find name with
      | None -> None
      | Some w ->
        let r = Sweep.get sweep ~workload:name ~technique:Repro_core.Technique.Cuda in
        Some
          {
            workload = w.W.Workload.name;
            suite = w.W.Workload.suite;
            description = w.W.Workload.description;
            objects = r.W.Harness.n_objects;
            paper_objects = w.W.Workload.paper_objects;
            types = r.W.Harness.n_types;
            vfuncs = r.W.Harness.n_vfuncs;
            vfunc_pki = r.W.Harness.vfunc_pki;
          })
    (Sweep.workload_names sweep)

let series sweep =
  Series.make ~name:"table2"
    ~title:"Table 2: workload characteristics (measured at the current scale)"
    (List.concat_map
       (fun r ->
         let group = Figview.short_group (r.suite ^ "/" ^ r.workload) in
         List.map
           (fun (series, value) -> { Series.group; series; value })
           [ ("objects", float_of_int r.objects);
             ("paper_objects", float_of_int r.paper_objects);
             ("types", float_of_int r.types); ("vfuncs", float_of_int r.vfuncs);
             ("vfunc_pki", r.vfunc_pki) ])
       (rows sweep))

let render sweep =
  let table =
    Table.create
      ~columns:
        [ ("suite", Table.Left); ("workload", Table.Left); ("#objects", Table.Right);
          ("paper #objects", Table.Right); ("#types", Table.Right);
          ("vFuncs", Table.Right); ("vFuncPKI", Table.Right) ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [ r.suite; r.workload; string_of_int r.objects; string_of_int r.paper_objects;
          string_of_int r.types; string_of_int r.vfuncs; Table.cell_f ~digits:1 r.vfunc_pki ])
    (rows sweep);
  "Table 2: workload characteristics (measured at the current scale)\n"
  ^ Table.render table
