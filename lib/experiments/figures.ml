module Series = Repro_report.Series
module Json = Repro_obs.Json

type source = {
  scale : float;
  j : int;
  cache : bool;
  cache_dir : string option;
  columns : Sweep.column list;
  progress : string -> unit;
  memo : Sweep.memo;
  sweep : Sweep.t Lazy.t;
}

type output = { series : Series.t list; text : string }

type t = {
  id : string;
  key : string;
  alloc : bool;
  pages : bool;
  measure : source -> output;
}

(* The text of a figure without a view of its own: its series' tables. *)
let tables series =
  { series; text = String.concat "\n" (List.map Figview.render_table series) }

let of_sweep ?render id key f =
  { id; key; alloc = true; pages = true;
    measure =
      (fun src ->
        let s = Lazy.force src.sweep in
        match render with
        | None -> tables (f s)
        | Some render -> { series = f s; text = render s }) }

(* Figures that set up their own runs: --alloc and --pages do not apply. *)
let fixed_view id key measure = { id; key; alloc = false; pages = false; measure }

let fixed id key series = fixed_view id key (fun src -> tables (series src))

(* A fixed figure's own column list, run under the command's settings. *)
let own_sweep src columns =
  Sweep.exec ~scale:src.scale ~j:src.j ~cache:src.cache ?cache_dir:src.cache_dir
    ~progress:src.progress ~memo:src.memo ~columns ()

let all =
  [
    of_sweep "1b" "fig1b" ~render:Fig1b.render (fun s -> [ Fig1b.series s ]);
    of_sweep "table1" "table1" ~render:Table1.render (fun s -> [ Table1.series s ]);
    of_sweep "table2" "table2" ~render:Table2.render (fun s -> [ Table2.series s ]);
    of_sweep "6" "fig6" (fun s -> [ Fig6.series s ]);
    of_sweep "7" "fig7" ~render:Fig7.render (fun s ->
        [ Fig7.series s; Fig7.breakdown_series s ]);
    of_sweep "8" "fig8" (fun s -> [ Fig8.series s ]);
    of_sweep "9" "fig9" (fun s -> [ Fig9.series s ]);
    fixed "10" "fig10" (fun src ->
        let ps = Fig10.points (own_sweep src Fig10.columns) in
        [ Fig10.series_perf ps; Fig10.series_frag ps ]);
    fixed "11" "fig11" (fun src -> [ Fig11.series (own_sweep src Fig11.columns) ]);
    fixed "12a" "fig12a" (fun src ->
        [ Fig12.object_series (Fig12.run_object_sweep ~scale:src.scale ~j:src.j ()) ]);
    fixed "12b" "fig12b" (fun src ->
        [ Fig12.type_series (Fig12.run_type_sweep ~scale:src.scale ~j:src.j ()) ]);
    (* All of init's cells are the shared sweep's; the ablation adds
       only its TP-HW column. *)
    fixed_view "init" "init" (fun src ->
        let rows = Init_bench.rows (own_sweep src Init_bench.columns) in
        { series = [ Init_bench.series rows ]; text = Init_bench.render rows });
    fixed_view "ablation" "ablation" (fun src ->
        let studies = Ablation.studies (own_sweep src Ablation.tp_columns) in
        { series = List.map Ablation.series studies;
          text = String.concat "" (List.map Ablation.render studies) });
    of_sweep "dram" "dram" (fun s -> [ Dram.series s ]);
    (* Re-sweeps the columns under every page policy, so a single
       --pages would contradict the comparison. *)
    { (fixed "tlb" "tlb" (fun src ->
           Fig_tlb.series
             (Fig_tlb.run ~columns:src.columns ~scale:src.scale ~j:src.j
                ~cache:src.cache ?cache_dir:src.cache_dir ~progress:src.progress
                ~memo:src.memo ())))
      with alloc = true };
  ]

let ids = List.map (fun f -> f.id) all

let find id = List.find_opt (fun f -> f.id = id) all

let trajectory ~scale results =
  Json.Obj
    [
      ("scale", Json.Float scale);
      ( "entries",
        Json.Obj
          (List.map
             (fun (fig, out) ->
               ( fig.key,
                 Json.List (List.map Repro_obs.Sink.series_to_json out.series) ))
             results) );
    ]
