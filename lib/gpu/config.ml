type t = {
  warp_size : int;
  n_sms : int;
  max_warps_per_sm : int;
  issue_width : int;
  compute_latency : int;
  ctrl_latency : int;
  const_latency : int;
  call_indirect_latency : int;
  call_direct_latency : int;
  l1_geometry : Cache.geometry;
  l1_latency : int;
  l1_sector_throughput : float;
  lsu_throughput : float;
  l2_geometry : Cache.geometry;
  l2_latency : int;
  l2_sector_throughput : float;
  dram_latency : int;
  dram_sector_throughput : float;
}

let default =
  {
    warp_size = 32;
    n_sms = 8;
    max_warps_per_sm = 32;
    issue_width = 2;
    compute_latency = 4;
    ctrl_latency = 8;
    const_latency = 10;
    call_indirect_latency = 45;
    call_direct_latency = 10;
    l1_geometry = Cache.geometry ~size_bytes:(128 * 1024) ~line_bytes:128 ~ways:4;
    l1_latency = 28;
    l1_sector_throughput = 4.0;
    lsu_throughput = 1.0;
    l2_geometry = Cache.geometry ~size_bytes:(512 * 1024) ~line_bytes:128 ~ways:16;
    l2_latency = 160;
    l2_sector_throughput = 6.0;
    dram_latency = 250;
    dram_sector_throughput = 3.0;
  }

let v100_like =
  {
    default with
    n_sms = 80;
    max_warps_per_sm = 64;
    l2_geometry = Cache.geometry ~size_bytes:(6 * 1024 * 1024) ~line_bytes:128 ~ways:24;
    l2_sector_throughput = 48.0;
    dram_sector_throughput = 20.0;
  }

let validate t =
  let positive name v = if v <= 0 then invalid_arg ("Config: " ^ name ^ " must be positive") in
  let positive_f name v =
    if v <= 0. then invalid_arg ("Config: " ^ name ^ " must be positive")
  in
  positive "warp_size" t.warp_size;
  positive "n_sms" t.n_sms;
  positive "max_warps_per_sm" t.max_warps_per_sm;
  positive "issue_width" t.issue_width;
  positive "compute_latency" t.compute_latency;
  positive "ctrl_latency" t.ctrl_latency;
  positive "const_latency" t.const_latency;
  positive "call_indirect_latency" t.call_indirect_latency;
  positive "call_direct_latency" t.call_direct_latency;
  positive "l1_latency" t.l1_latency;
  positive "l2_latency" t.l2_latency;
  positive "dram_latency" t.dram_latency;
  positive_f "l1_sector_throughput" t.l1_sector_throughput;
  positive_f "lsu_throughput" t.lsu_throughput;
  positive_f "l2_sector_throughput" t.l2_sector_throughput;
  positive_f "dram_sector_throughput" t.dram_sector_throughput

let pp ppf t =
  Format.fprintf ppf
    "@[<v>GPU: %d SMs x %d warps, warp=%d, issue=%d/cyc@,\
     L1 %dKB (lat %d), L2 %dKB (lat %d), DRAM lat %d, DRAM bw %.1f sec/cyc@]"
    t.n_sms t.max_warps_per_sm t.warp_size t.issue_width
    (t.l1_geometry.Cache.size_bytes / 1024)
    t.l1_latency
    (t.l2_geometry.Cache.size_bytes / 1024)
    t.l2_latency t.dram_latency t.dram_sector_throughput
