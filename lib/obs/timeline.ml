module Stats = Repro_gpu.Stats
module Label = Repro_gpu.Label
module Series = Repro_report.Series

type kernel = {
  index : int;
  start : float;
  windows : Stats.t array;
}

type t = {
  workload : string;
  technique : string;
  window : int;
  kernels : kernel list;
}

let kernel_cycles rows =
  Array.fold_left (fun acc row -> acc +. Stats.cycles row) 0. rows

let make ~workload ~technique ~window ~kernel_windows =
  if window <= 0 then invalid_arg "Timeline.make: window must be positive";
  let _, rev =
    List.fold_left
      (fun (start, acc) rows ->
        let k = { index = List.length acc; start; windows = rows } in
        (start +. kernel_cycles rows, k :: acc))
      (0., []) kernel_windows
  in
  { workload; technique; window; kernels = List.rev rev }

let n_windows t =
  List.fold_left (fun acc k -> acc + Array.length k.windows) 0 t.kernels

let fold_rows rows =
  let acc = Stats.create () in
  Array.iter (fun row -> Stats.add acc row) rows;
  acc

let mismatches ~what summed reference =
  List.filter_map
    (fun m ->
      let s = Metric.value m summed and r = Metric.value m reference in
      if s = r then None
      else
        Some
          (Format.asprintf "%s %s: windows sum to %a, delta is %a" what
             (Metric.name m) Metric.pp_value s Metric.pp_value r))
    Metric.counters

let consistent t ~profile =
  if List.length t.kernels <> List.length profile.Profile.kernels then
    Error
      (Printf.sprintf "timeline has %d launches, profile has %d"
         (List.length t.kernels)
         (List.length profile.Profile.kernels))
  else begin
    (* Folding each launch's windows replays the device's own
       accumulation, and folding those launch sums replays the run
       totals — both with the identical association of [Stats.add]
       calls, so every counter (floats included) must match exactly. *)
    let total = Stats.create () in
    let errors =
      List.concat_map
        (fun (k, pk) ->
          let summed = fold_rows k.windows in
          Stats.add total summed;
          mismatches
            ~what:(Printf.sprintf "kernel %d" k.index)
            summed pk.Profile.stats)
        (List.combine t.kernels profile.Profile.kernels)
    in
    let errors = errors @ mismatches ~what:"total" total profile.Profile.total in
    match errors with [] -> Ok () | es -> Error (String.concat "; " es)
  end

let windows t =
  List.concat_map
    (fun k ->
      List.mapi
        (fun j row -> (k.start +. float_of_int (j * t.window), row))
        (Array.to_list k.windows))
    t.kernels

(* {2 Derived per-window quantities} *)

let ipc row =
  let c = Stats.cycles row in
  if c <= 0. then 0. else float_of_int (Stats.total_instructions row) /. c

let dram_per_cycle row =
  let c = Stats.cycles row in
  if c <= 0. then 0. else float_of_int (Stats.dram_sectors row) /. c

let rates =
  [
    ("ipc", "warp instructions per cycle", ipc);
    ("l1.hit_rate", "L1 hit rate", Stats.l1_hit_rate);
    ("l2.hit_rate", "L2 hit rate", Stats.l2_hit_rate);
    ("dram.sectors_per_cycle", "DRAM sectors per cycle", dram_per_cycle);
  ]

let stall_share label row =
  let total = Stats.total_stall_cycles row in
  if total <= 0. then 0. else Stats.stall_cycles row label /. total

let tlb_hit_rate row =
  let lookups = Stats.tlb_lookups row in
  if lookups = 0 then 0.
  else
    float_of_int (Stats.tlb_l1_hits row + Stats.tlb_l2_hits row)
    /. float_of_int lookups

let tlb_walk_share row =
  let c = Stats.cycles row in
  if c <= 0. then 0. else Stats.tlb_walk_cycles row /. c

let group_of start = Printf.sprintf "%.0f" start

let derived_quantities t =
  let stalled_labels =
    List.filter
      (fun label ->
        List.exists
          (fun (_, row) -> Stats.stall_cycles row label > 0.)
          (windows t))
      Label.all
  in
  let tlb_rows =
    (* Like the stall shares: only runs that model translation get the
       rows, so every other timeline is unchanged. *)
    if List.exists (fun (_, row) -> Stats.tlb_lookups row > 0) (windows t)
    then
      [
        ("tlb.hit_rate", "TLB hit rate (both levels)", tlb_hit_rate);
        ("tlb.walk_share", "share of cycles walking page tables",
         tlb_walk_share);
      ]
    else []
  in
  rates
  @ tlb_rows
  @ List.map
      (fun label ->
        ( "stall_share." ^ Label.slug label,
          "share of stall cycles: " ^ Label.name label,
          stall_share label ))
      stalled_labels

let series_of t ~name ~title extract =
  Series.make
    ~name:("timeline." ^ name)
    ~title:
      (Printf.sprintf "%s — %s under %s, %d-cycle windows" title t.workload
         t.technique t.window)
    ~group_label:"window_start"
    (List.map
       (fun (start, row) ->
         { Series.group = group_of start; series = name; value = extract row })
       (windows t))

let series t =
  List.map
    (fun (name, title, extract) -> series_of t ~name ~title extract)
    (derived_quantities t)

let to_json t =
  Json.Obj
    [
      ("workload", Json.String t.workload);
      ("technique", Json.String t.technique);
      ("window", Json.Int t.window);
      ( "kernels",
        Json.List
          (List.map
             (fun k ->
               Json.Obj
                 [
                   ("launch", Json.Int k.index);
                   ("start", Json.Float k.start);
                   ( "windows",
                     Json.List
                       (Array.to_list
                          (Array.mapi
                             (fun j row ->
                               Json.Obj
                                 [
                                   ( "start",
                                     Json.Float
                                       (k.start +. float_of_int (j * t.window))
                                   );
                                   ("cycles", Json.Float (Stats.cycles row));
                                   ( "metrics",
                                     Metric.to_json ~metrics:Metric.counters row
                                   );
                                 ])
                             k.windows)) );
                 ])
             t.kernels) );
    ]

(* {2 Rendering} *)

let blocks = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]

let spark_width = 64

(* Bucket [values] down to at most [spark_width] cells (cell = mean of
   its bucket), then map linearly onto the eight block glyphs. *)
let sparkline values =
  let n = Array.length values in
  if n = 0 then ""
  else begin
    let cells =
      if n <= spark_width then values
      else
        Array.init spark_width (fun c ->
            let lo = c * n / spark_width and hi = (c + 1) * n / spark_width in
            let hi = max (lo + 1) hi in
            let sum = ref 0. in
            for i = lo to hi - 1 do
              sum := !sum +. values.(i)
            done;
            !sum /. float_of_int (hi - lo))
    in
    let vmax = Array.fold_left (fun a v -> if v > a then v else a) 0. cells in
    let buf = Buffer.create (Array.length cells * 3) in
    Array.iter
      (fun v ->
        let i =
          if vmax <= 0. then 0
          else min 7 (int_of_float (v /. vmax *. 8.))
        in
        Buffer.add_string buf blocks.(i))
      cells;
    Buffer.contents buf
  end

let render t =
  let buf = Buffer.create 1024 in
  let all = windows t in
  Buffer.add_string buf
    (Printf.sprintf
       "timeline: %s under %s — %d-cycle windows, %d windows over %d launches\n"
       t.workload t.technique t.window (List.length all)
       (List.length t.kernels));
  let rows = Array.of_list (List.map snd all) in
  let line label extract =
    let values = Array.map extract rows in
    let vmax = Array.fold_left (fun a v -> if v > a then v else a) 0. values in
    Buffer.add_string buf
      (Printf.sprintf "  %-28s %s  max %.3g\n" label (sparkline values) vmax)
  in
  List.iter
    (fun (name, _, extract) -> line name extract)
    (derived_quantities t);
  (* Per-kernel drilldown: where inside each launch the cycles went. *)
  List.iter
    (fun k ->
      if Array.length k.windows > 1 then begin
        Buffer.add_string buf
          (Printf.sprintf "  kernel %d (start %.0f, %d windows)\n" k.index
             k.start (Array.length k.windows));
        let values = Array.map ipc k.windows in
        let vmax =
          Array.fold_left (fun a v -> if v > a then v else a) 0. values
        in
        Buffer.add_string buf
          (Printf.sprintf "    %-26s %s  max %.3g\n" "ipc" (sparkline values)
             vmax)
      end)
    t.kernels;
  Buffer.contents buf
