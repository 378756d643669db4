module R = Repro_core
module Stats = Repro_gpu.Stats

type run = {
  workload : string;
  technique : R.Technique.t;
  alloc : R.Alloc_family.t;
  cycles : float;
  stats : Stats.t;
  kernel_stats : Stats.t list;
  window : int option;
  kernel_windows : Stats.t array list;
  trace : Repro_gpu.Telemetry.dump option;
  checksum : int;
  result : int;
  n_objects : int;
  n_types : int;
  n_vfuncs : int;
  vfunc_pki : float;
  warp_vcalls : int;
  alloc_stats : R.Allocator.stats;
}

let snapshot = Stats.copy

let run (w : Workload.t) (p : Workload.params) =
  let inst = w.Workload.build p in
  let rt = inst.Workload.rt in
  R.Runtime.reset_stats rt;
  for i = 0 to inst.Workload.iterations - 1 do
    inst.Workload.run_iteration i
  done;
  {
    workload = Registry.qualified_name w;
    technique = p.Workload.technique;
    alloc = R.Runtime.alloc_family rt;
    cycles = R.Runtime.cycles rt;
    stats = snapshot (R.Runtime.stats rt);
    kernel_stats = List.map snapshot (R.Runtime.kernel_timeline rt);
    window = R.Runtime.sample_window rt;
    kernel_windows =
      List.map (Array.map snapshot) (R.Runtime.window_timeline rt);
    trace = R.Runtime.telemetry_dump rt;
    checksum = R.Runtime.checksum rt;
    result = inst.Workload.result ();
    n_objects = R.Runtime.n_objects rt;
    n_types = R.Registry.type_count (R.Runtime.registry rt);
    n_vfuncs = R.Registry.total_vfunc_slots (R.Runtime.registry rt);
    vfunc_pki = R.Runtime.vfunc_pki rt;
    warp_vcalls = R.Runtime.warp_vcalls rt;
    alloc_stats = (R.Runtime.allocator rt).R.Allocator.stats ();
  }

let validate_equal runs =
  match runs with
  | [] -> ()
  | first :: rest ->
    List.iter
      (fun r ->
        if r.checksum <> first.checksum || r.result <> first.result then
          failwith
            (Printf.sprintf
               "Harness: functional mismatch on %s: %s=(%d,%d) vs %s=(%d,%d)"
               r.workload
               (R.Technique.name first.technique)
               first.checksum first.result
               (R.Technique.name r.technique)
               r.checksum r.result))
      rest

let speedup_vs ~baseline r = baseline.cycles /. r.cycles

let normalized_cycles ~baseline r = r.cycles /. baseline.cycles
