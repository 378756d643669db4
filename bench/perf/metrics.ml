type better = Higher | Lower

type def = { name : string; unit_ : string; better : better; bound : float option }

let e2e name unit_ better bound = { name; unit_; better; bound = Some bound }
let layer name unit_ better = { name; unit_; better; bound = None }

(* Every end-to-end metric is defined on every workload (an "op" is a
   sweep cell or a daemon request), so each run prints all of them. *)
let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "sim_minstr_per_s" "Minstr/s" Higher 0.25;
    e2e "ops_per_s" "1/s" Higher 0.25;
    e2e "op_p50_ms" "ms" Lower 0.25;
    e2e "op_tail_ms" "ms" Lower 0.25;
    e2e "peak_rss_mb" "MB" Lower 0.15;
  ]

let stages =
  [ "decode"; "queued"; "dedup_wait"; "cache_probe"; "run"; "encode"; "request" ]

let per_layer =
  [
    layer "workloads.build_s" "s" Lower;
    layer "workloads.iterations_s" "s" Lower;
    layer "workloads.finish_s" "s" Lower;
    layer "experiments.sweep_overhead_s" "s" Lower;
    layer "gpu.functional_s" "s" Lower;
    layer "gpu.functional_words_per_instr" "words" Lower;
    layer "gpu.replay_s" "s" Lower;
    layer "gpu.replay_fused_s" "s" Lower;
    layer "vm.translate_s" "s" Lower;
    layer "gpu.replay_words_per_instr" "words" Lower;
    layer "gpu.replay_words_per_launch" "words" Lower;
    layer "gpu.hierarchy_words" "words" Lower;
    layer "gpu.warp_instrs" "count" Lower;
    layer "gpu.cycles" "cycles" Lower;
    layer "gpu.launches" "count" Lower;
    layer "gpu.dedup_ratio" "ratio" Higher;
    layer "gpu.unique_instr_frac" "fraction" Lower;
    layer "gpu.l1_hit_rate" "fraction" Higher;
    layer "gpu.l2_hit_rate" "fraction" Higher;
    layer "gpu.dram_sectors" "count" Lower;
    layer "core.warp_vcalls" "count" Lower;
    layer "core.objects" "count" Lower;
    layer "vm.tlb_lookups" "count" Lower;
    layer "vm.tlb_l1_hit_rate" "fraction" Higher;
    layer "vm.tlb_walks" "count" Lower;
    layer "vm.walk_cycle_frac" "ratio" Lower;
  ]
  @ List.map (fun s -> layer ("exec.stage." ^ s ^ "_ms") "ms" Lower) stages
  @ [
      layer "exec.served_without_run_frac" "fraction" Higher;
      layer "client.submit_ms" "ms" Lower;
      layer "client.batch2_ms" "ms" Lower;
      layer "client.query_ms" "ms" Lower;
      layer "client.stats_ms" "ms" Lower;
      layer "exec.wire_bytes" "bytes" Lower;
      layer "exec.wire_encode_ms" "ms" Lower;
      layer "exec.wire_decode_ms" "ms" Lower;
      layer "exec.cache_lookup_ms" "ms" Lower;
      layer "exec.cache_store_ms" "ms" Lower;
      layer "trace_overhead_pct" "%" Lower;
      layer "host.probe_factor" "ratio" Lower;
    ]

let find name =
  List.find_opt (fun d -> d.name = name) (end_to_end @ per_layer)

let better_name = function Higher -> "higher" | Lower -> "lower"
