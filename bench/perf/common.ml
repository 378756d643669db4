module Json = Repro_obs.Json
module W = Repro_workloads
module Stats = Repro_gpu.Stats

let now = Unix.gettimeofday

(* VmHWM (peak resident set) of [pid], in MB; 0. when unreadable. *)
let peak_rss_mb pid =
  let file = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  match In_channel.with_open_text file In_channel.input_all with
  | text ->
    List.find_map
      (fun line ->
        Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
      (String.split_on_char '\n' text)
    |> Option.value ~default:0.
  | exception Sys_error _ -> 0.

(* The percentile of op_tail_ms on every workload. A higher one measured
   the host more than the program: on serve-hot, beside a process busy
   in bursts, p99 rose by 51 %, p95 by 9 % and p90 by 3 %. *)
let tail_pct = 90.

let tail_note n =
  match Stat.tail_percentile n with Some p -> Json.Float p | None -> Json.Null

let sum f l = List.fold_left (fun a x -> a +. f x) 0. l
let ratio a b = if b = 0. then 0. else a /. b

(* The simulator's deterministic counters over a set of runs — the
   per-layer counts of the modelled GPU, allocator and translation. *)
let counts (runs : W.Harness.run list) =
  let total f = sum (fun (r : W.Harness.run) -> f r) runs in
  let st f = total (fun r -> float_of_int (f r.W.Harness.stats)) in
  let cycles = total (fun r -> r.W.Harness.cycles) in
  let lookups = st Stats.tlb_lookups in
  [
    ("gpu.warp_instrs", st Stats.total_instructions);
    ("gpu.cycles", cycles);
    ("gpu.launches", total (fun r -> float_of_int (List.length r.W.Harness.kernel_stats)));
    ("gpu.l1_hit_rate", ratio (st Stats.l1_hits) (st Stats.l1_accesses));
    ("gpu.l2_hit_rate", ratio (st Stats.l2_hits) (st Stats.l2_hits +. st Stats.l2_misses));
    ("gpu.dram_sectors", st Stats.dram_sectors);
    ("core.warp_vcalls", total (fun r -> float_of_int r.W.Harness.warp_vcalls));
    ("core.objects", total (fun r -> float_of_int r.W.Harness.n_objects));
    ("vm.tlb_lookups", lookups);
    ("vm.tlb_l1_hit_rate", ratio (st Stats.tlb_l1_hits) lookups);
    ("vm.tlb_walks", st Stats.tlb_walks);
    ( "vm.walk_cycle_frac",
      ratio (total (fun r -> Stats.tlb_walk_cycles r.W.Harness.stats)) cycles );
  ]

(* Every per-layer metric, in registry order; a layer the workload
   does not exercise (or cannot observe) reads 0. *)
let per_layer values =
  List.map
    (fun d -> (d.Metrics.name, Option.value ~default:0. (List.assoc_opt d.Metrics.name values)))
    Metrics.per_layer

let values_note values = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) values)

let self_time_note rows =
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           [
             ("span", Json.String r.Spans.name);
             ("count", Json.Int r.Spans.count);
             ("total_s", Json.Float r.Spans.total_s);
             ("self_s", Json.Float r.Spans.self_s);
           ])
       rows)

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

(* Write the run's spans as Chrome trace JSON, then read the file back:
   the per-layer table is computed from what was written. *)
let write_trace ~path doc =
  ensure_dir (Filename.dirname path);
  Repro_obs.Sink.write_file ~path (Json.to_string doc);
  let back =
    match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith (path ^ ": " ^ e)
  in
  match Repro_obs.Tracer.validate back with
  | Ok () -> Spans.self_times back
  | Error e -> failwith (path ^ ": invalid trace: " ^ e)

let trace_path workload = Printf.sprintf "_perf/trace-%s.json" workload
let outcome_path pid = Printf.sprintf "_perf/outcome-%d.json" pid
