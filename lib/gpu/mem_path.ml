(* State of the L1 -> L2 -> DRAM timing path. [Sm.run] walks it: the
   bandwidth clocks live in flat float arrays (mutable boxed-float record
   fields would re-box on every store), the coalesced sectors go through
   a reusable scratch buffer, and reciprocal throughputs and latencies
   are precomputed once at [create] time, so the replay loop reads them
   without a division or an allocation. *)

type t = {
  cfg : Config.t;
  l1s : Cache.t array;
  l1_next_free : float array;
  lsu_next_free : float array;
  l2 : Cache.t;
  (* clk.(0) = L2 next-free, clk.(1) = DRAM next-free. *)
  clk : float array;
  (* Coalescer scratch, warp_size entries. *)
  scratch : int array;
  (* Precomputed per-level costs. Reading a float field never allocates;
     only these are read on the replay path, never written. *)
  inv_l1_tp : float;
  inv_l2_tp : float;
  inv_lsu_tp : float;
  inv_dram_cost : float;   (* 1 sector's DRAM occupancy (stores) *)
  dram_pair_cost : float;  (* 64 B fill = 2 sectors (loads) *)
  l1_lat : float;
  l2_lat : float;
  dram_lat : float;
  (* n_over_l1.(n) = float n /. l1_sector_throughput, n in 0..warp_size:
     the LSU occupancy term without a float_of_int/div per access. *)
  n_over_l1 : float array;
  (* Optional address translation. When set, every coalesced sector is
     looked up in the TLB hierarchy and its outcome priced through
     [vm_lat] — a per-lookup-code latency table precomputed at [set_vm]
     so the per-sector path indexes a float array instead of crossing a
     float-returning function boundary. *)
  mutable vm : Repro_vm.Vm.t option;
  mutable vm_lat : float array;
}

let create (cfg : Config.t) =
  Config.validate cfg;
  {
    cfg;
    l1s = Array.init cfg.n_sms (fun _ -> Cache.create cfg.l1_geometry);
    l1_next_free = Array.make cfg.n_sms 0.;
    lsu_next_free = Array.make cfg.n_sms 0.;
    l2 = Cache.create cfg.l2_geometry;
    clk = Array.make 2 0.;
    scratch = Array.make cfg.warp_size 0;
    inv_l1_tp = 1. /. cfg.l1_sector_throughput;
    inv_l2_tp = 1. /. cfg.l2_sector_throughput;
    inv_lsu_tp = 1. /. cfg.lsu_throughput;
    inv_dram_cost = 1. /. cfg.dram_sector_throughput;
    dram_pair_cost = 2. /. cfg.dram_sector_throughput;
    l1_lat = float_of_int cfg.l1_latency;
    l2_lat = float_of_int cfg.l2_latency;
    dram_lat = float_of_int cfg.dram_latency;
    n_over_l1 =
      Array.init (cfg.warp_size + 1) (fun n ->
          float_of_int n /. cfg.l1_sector_throughput);
    vm = None;
    vm_lat = Array.make (Repro_vm.Vm.max_code + 1) 0.;
  }

(* The replay loop indexes the vm's per-SM L1 TLBs by SM unchecked, so a
   model sized for another SM count than this hierarchy is refused. *)
let set_vm t vm =
  (match vm with
   | Some v when Repro_vm.Vm.n_sms v <> t.cfg.n_sms ->
     invalid_arg
       (Printf.sprintf "Mem_path.set_vm: vm has %d SMs, the memory path %d"
          (Repro_vm.Vm.n_sms v) t.cfg.n_sms)
   | Some _ | None -> ());
  t.vm <- vm;
  match vm with
  | None -> Array.fill t.vm_lat 0 (Array.length t.vm_lat) 0.
  | Some v ->
    for code = 0 to Repro_vm.Vm.max_code do
      t.vm_lat.(code) <- Repro_vm.Vm.latency_of_code v code
    done

let vm t = t.vm

let flush_l1s t = Array.iter Cache.flush t.l1s

let begin_kernel t =
  flush_l1s t;
  (* L1 TLBs flush with the L1 data caches; the shared L2 TLB persists
     across launches like the L2 data cache. *)
  (match t.vm with
   | Some v -> Repro_vm.Vm.flush_l1s v
   | None -> ());
  Array.fill t.l1_next_free 0 (Array.length t.l1_next_free) 0.;
  Array.fill t.lsu_next_free 0 (Array.length t.lsu_next_free) 0.;
  t.clk.(0) <- 0.;
  t.clk.(1) <- 0.

let reset t =
  begin_kernel t;
  Cache.flush t.l2;
  match t.vm with
  | Some v -> Repro_vm.Vm.flush v
  | None -> ()

let l1_probe t ~sm ~sector = Cache.probe t.l1s.(sm) ~sector

(* Raw state for the replay loop: hoisted once per launch, then the
   per-access path is direct array arithmetic. *)
module Raw = struct
  let l1s t = t.l1s
  let l2 t = t.l2
  let clk t = t.clk
  let l1_next_free t = t.l1_next_free
  let lsu_next_free t = t.lsu_next_free
  let scratch t = t.scratch
  let inv_l1_tp t = t.inv_l1_tp
  let inv_l2_tp t = t.inv_l2_tp
  let inv_lsu_tp t = t.inv_lsu_tp
  let inv_dram_cost t = t.inv_dram_cost
  let dram_pair_cost t = t.dram_pair_cost
  let l1_lat t = t.l1_lat
  let l2_lat t = t.l2_lat
  let dram_lat t = t.dram_lat
  let n_over_l1 t = t.n_over_l1
  let vm_lat t = t.vm_lat
end
