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

type t = {
  id : string;
  key : string;
  alloc : bool;
  pages : bool;
  series : source -> Series.t list;
  render : (Sweep.t -> string) option;
}

let of_sweep ?render id key f =
  { id; key; alloc = true; pages = true; render;
    series = (fun src -> f (Lazy.force src.sweep)) }

(* Figures that set up their own runs: --alloc and --pages do not apply. *)
let fixed id key series =
  { id; key; alloc = false; pages = false; render = None; series }

(* A fixed figure's own column list, run under the command's settings. *)
let own_sweep src columns =
  Sweep.exec ~scale:src.scale ~j:src.j ~cache:src.cache ?cache_dir:src.cache_dir
    ~progress:src.progress ~memo:src.memo ~columns ()

let all =
  [
    of_sweep "1b" "fig1b" ~render:Fig1b.render (fun s -> [ Fig1b.series s ]);
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
    of_sweep "dram" "dram" (fun s -> [ Dram.series s ]);
    (* Re-sweeps the columns under every page policy, so a single
       --pages would contradict the comparison. *)
    {
      id = "tlb"; key = "tlb"; alloc = true; pages = false; render = None;
      series =
        (fun src ->
          Fig_tlb.series
            (Fig_tlb.run ~columns:src.columns ~scale:src.scale ~j:src.j
               ~cache:src.cache ?cache_dir:src.cache_dir ~progress:src.progress
               ~memo:src.memo ()));
    };
  ]

let ids = List.map (fun f -> f.id) all

let find id = List.find_opt (fun f -> f.id = id) all

let text fig src series =
  match fig.render with
  | Some render -> render (Lazy.force src.sweep)
  | None -> String.concat "\n" (List.map Figview.render_table series)

let trajectory ~scale results =
  Json.Obj
    [
      ("scale", Json.Float scale);
      ( "entries",
        Json.Obj
          (List.map
             (fun (fig, series) ->
               (fig.key, Json.List (List.map Repro_obs.Sink.series_to_json series)))
             results) );
    ]
