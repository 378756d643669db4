(* Timing of the L1 -> L2 -> DRAM path.

   The replay-path entry points ([load_soa]/[store_soa]) are written to
   allocate nothing: reciprocal throughputs and latencies are precomputed
   once at [create] time, bandwidth clocks live in flat float arrays
   (mutable boxed-float record fields would re-box on every store), the
   coalesced sectors go through a reusable scratch buffer, and the
   issue/completion times cross the [Sm] boundary through the two-slot
   [io] float array instead of boxed argument/return floats. *)

type t = {
  cfg : Config.t;
  l1s : Cache.t array;
  l1_next_free : float array;
  lsu_next_free : float array;
  l2 : Cache.t;
  (* clk.(0) = L2 next-free, clk.(1) = DRAM next-free. *)
  clk : float array;
  (* io.(0): issue time in; io.(1): load completion time out. *)
  io : float array;
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
  (* Optional telemetry event ring; when set, every sector transaction
     is recorded by direct array stores (never boxing a float). The
     timing model is oblivious to it. *)
  mutable ring : Telemetry.Ring.t option;
  (* Optional address translation. When set, every coalesced sector is
     looked up in the TLB hierarchy and its outcome priced through
     [vm_lat] — a per-lookup-code latency table precomputed at [set_vm]
     so the per-sector path indexes a float array instead of crossing a
     float-returning function boundary. [None] (the default) keeps the
     entry points on the exact pre-translation code path. *)
  mutable vm : Repro_vm.Vm.t option;
  mutable vm_lat : float array;
}

(* Bit-identical to [Float.max] on this module's domain: times and costs
   are non-NaN and never negative zero. *)
let fmax (a : float) (b : float) = if a >= b then a else b

let create (cfg : Config.t) =
  Config.validate cfg;
  {
    cfg;
    l1s = Array.init cfg.n_sms (fun _ -> Cache.create cfg.l1_geometry);
    l1_next_free = Array.make cfg.n_sms 0.;
    lsu_next_free = Array.make cfg.n_sms 0.;
    l2 = Cache.create cfg.l2_geometry;
    clk = Array.make 2 0.;
    io = Array.make 2 0.;
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
    ring = None;
    vm = None;
    vm_lat = Array.make (Repro_vm.Vm.max_code + 1) 0.;
  }

let io t = t.io

let set_ring t ring = t.ring <- ring

let ring t = t.ring

(* The replay loops index the vm's per-SM L1 TLBs by SM unchecked, so a
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

(* Write one event at the ring head by direct stores. Local and small,
   so ocamlopt inlines it and the float arguments stay in registers —
   the per-sector recording path allocates nothing. *)
let[@inline] emit r kind track a b ts dur =
  (* [head] < capacity always (Ring.bump wraps it), and the six arrays
     share that capacity, so the unsafe stores are in bounds. *)
  let i = r.Telemetry.Ring.head in
  Array.unsafe_set r.Telemetry.Ring.kind i kind;
  Array.unsafe_set r.Telemetry.Ring.track i track;
  Array.unsafe_set r.Telemetry.Ring.arg_a i a;
  Array.unsafe_set r.Telemetry.Ring.arg_b i b;
  let abs_ts = Array.unsafe_get r.Telemetry.Ring.cells 0 +. ts in
  Array.unsafe_set r.Telemetry.Ring.ts i abs_ts;
  Array.unsafe_set r.Telemetry.Ring.dur i dur;
  let e = abs_ts +. dur in
  if e > Array.unsafe_get r.Telemetry.Ring.cells 1 then
    Array.unsafe_set r.Telemetry.Ring.cells 1 e;
  Telemetry.Ring.bump r

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

(* The LSU acceptance step (the warp access starts no earlier than the
   SM's LSU is free and occupies it for max(issue slot, sector drain)) is
   written out in both entry points rather than shared: a non-inlined
   function returning a float would box its result on every access. *)

let load_soa t ~stats ~label_idx ~sm ~arena ~off ~len =
  let n = Coalesce.sectors_into ~buf:t.scratch arena ~off ~len in
  Stats.count_load_transactions_idx stats label_idx n;
  let t0 = fmax t.io.(0) t.lsu_next_free.(sm) in
  t.lsu_next_free.(sm) <- t0 +. fmax t.inv_lsu_tp t.n_over_l1.(n);
  t.io.(1) <- t0;
  let ring = t.ring in
  match t.vm with
  | None ->
  for i = 0 to n - 1 do
    let sector = t.scratch.(i) in
    (* One sector through the hierarchy: bandwidth reservation at each
       level it reaches, cumulative latency down to the level that hits.
       The completion time folds into io.(1) by replace-if-greater at
       each leaf so no float crosses a join point. *)
    let t1 = fmax t0 t.l1_next_free.(sm) in
    t.l1_next_free.(sm) <- t1 +. t.inv_l1_tp;
    match Cache.access t.l1s.(sm) ~sector with
    | `Hit ->
      Stats.count_l1 stats ~hit:true;
      (match ring with
       | Some r -> emit r Telemetry.Ring.kind_l1 sm 1 sector t1 t.l1_lat
       | None -> ());
      let c = t1 +. t.l1_lat in
      if c > t.io.(1) then t.io.(1) <- c
    | `Miss ->
      Stats.count_l1 stats ~hit:false;
      (match ring with
       | Some r -> emit r Telemetry.Ring.kind_l1 sm 0 sector t1 0.
       | None -> ());
      let t2 = fmax (t1 +. t.l1_lat) t.clk.(0) in
      t.clk.(0) <- t2 +. t.inv_l2_tp;
      (match Cache.access t.l2 ~sector with
       | `Hit ->
         Stats.count_l2 stats ~hit:true;
         (match ring with
          | Some r -> emit r Telemetry.Ring.kind_l2 sm 1 sector t2 t.l2_lat
          | None -> ());
         let c = t2 +. t.l2_lat in
         if c > t.io.(1) then t.io.(1) <- c
       | `Miss ->
         Stats.count_l2 stats ~hit:false;
         (match ring with
          | Some r -> emit r Telemetry.Ring.kind_l2 sm 0 sector t2 0.
          | None -> ());
         (* DRAM is accessed at 64 B granularity (Volta's L2 fill size):
            the missing sector and its pair are both fetched and
            installed. Padded or scattered objects waste the pair half;
            packed objects find their neighbour in it — a first-order
            reason type-based packing wins (Sec. 8.2). *)
         Stats.count_dram_sector stats;
         Stats.count_dram_sector stats;
         ignore (Cache.access t.l2 ~sector:(sector lxor 1));
         let t3 = fmax (t2 +. t.l2_lat) t.clk.(1) in
         t.clk.(1) <- t3 +. t.dram_pair_cost;
         (match ring with
          | Some r -> emit r Telemetry.Ring.kind_dram sm 2 sector t3 t.dram_lat
          | None -> ());
         let c = t3 +. t.dram_lat in
         if c > t.io.(1) then t.io.(1) <- c)
  done
  | Some vm ->
  (* Same walk of the hierarchy, prefixed by an address translation per
     sector: the lookup code indexes [vm_lat] (0 on an L1 TLB hit), and
     the translation delay pushes this sector's L1 issue time the same
     way L1 arbitration does. Duplicated rather than branched per sector
     so the [None] path above stays byte-for-byte the pre-vm model. *)
  for i = 0 to n - 1 do
    let sector = t.scratch.(i) in
    let code = Repro_vm.Vm.lookup vm ~sm ~sector in
    let tx = Array.unsafe_get t.vm_lat code in
    (if code = 0 then Stats.count_tlb_l1_hit stats
     else if code = 1 then Stats.count_tlb_l2_hit stats
     else begin
       Stats.count_tlb_walk stats tx;
       match ring with
       | Some r -> emit r Telemetry.Ring.kind_tlb sm (code - 2) sector t0 tx
       | None -> ()
     end);
    let t1 = fmax (t0 +. tx) t.l1_next_free.(sm) in
    t.l1_next_free.(sm) <- t1 +. t.inv_l1_tp;
    match Cache.access t.l1s.(sm) ~sector with
    | `Hit ->
      Stats.count_l1 stats ~hit:true;
      (match ring with
       | Some r -> emit r Telemetry.Ring.kind_l1 sm 1 sector t1 t.l1_lat
       | None -> ());
      let c = t1 +. t.l1_lat in
      if c > t.io.(1) then t.io.(1) <- c
    | `Miss ->
      Stats.count_l1 stats ~hit:false;
      (match ring with
       | Some r -> emit r Telemetry.Ring.kind_l1 sm 0 sector t1 0.
       | None -> ());
      let t2 = fmax (t1 +. t.l1_lat) t.clk.(0) in
      t.clk.(0) <- t2 +. t.inv_l2_tp;
      (match Cache.access t.l2 ~sector with
       | `Hit ->
         Stats.count_l2 stats ~hit:true;
         (match ring with
          | Some r -> emit r Telemetry.Ring.kind_l2 sm 1 sector t2 t.l2_lat
          | None -> ());
         let c = t2 +. t.l2_lat in
         if c > t.io.(1) then t.io.(1) <- c
       | `Miss ->
         Stats.count_l2 stats ~hit:false;
         (match ring with
          | Some r -> emit r Telemetry.Ring.kind_l2 sm 0 sector t2 0.
          | None -> ());
         Stats.count_dram_sector stats;
         Stats.count_dram_sector stats;
         ignore (Cache.access t.l2 ~sector:(sector lxor 1));
         let t3 = fmax (t2 +. t.l2_lat) t.clk.(1) in
         t.clk.(1) <- t3 +. t.dram_pair_cost;
         (match ring with
          | Some r -> emit r Telemetry.Ring.kind_dram sm 2 sector t3 t.dram_lat
          | None -> ());
         let c = t3 +. t.dram_lat in
         if c > t.io.(1) then t.io.(1) <- c)
  done

let store_soa t ~stats ~sm ~arena ~off ~len =
  let n = Coalesce.sectors_into ~buf:t.scratch arena ~off ~len in
  Stats.count_store_transactions stats n;
  let t0 = fmax t.io.(0) t.lsu_next_free.(sm) in
  t.lsu_next_free.(sm) <- t0 +. fmax t.inv_lsu_tp t.n_over_l1.(n);
  let ring = t.ring in
  match t.vm with
  | None ->
  for i = 0 to n - 1 do
    let sector = t.scratch.(i) in
    (* Write-through: every store sector consumes L2 bandwidth and is
       installed there; an L2 miss additionally consumes DRAM bandwidth.
       Store events are instants (dur 0): the warp does not wait on
       them, and the DRAM drain can outlive the kernel's last warp. *)
    let t2 = fmax t0 t.clk.(0) in
    t.clk.(0) <- t2 +. t.inv_l2_tp;
    match Cache.access t.l2 ~sector with
    | `Hit ->
      (match ring with
       | Some r -> emit r Telemetry.Ring.kind_l2 sm 3 sector t2 0.
       | None -> ())
    | `Miss ->
      (match ring with
       | Some r -> emit r Telemetry.Ring.kind_l2 sm 2 sector t2 0.
       | None -> ());
      Stats.count_dram_sector stats;
      let t3 = fmax t2 t.clk.(1) in
      t.clk.(1) <- t3 +. t.inv_dram_cost;
      (match ring with
       | Some r -> emit r Telemetry.Ring.kind_dram sm 1 sector t3 0.
       | None -> ())
  done
  | Some vm ->
  (* Stores translate too: the sector cannot reach L2 before its page
     does, so the walk delay feeds the L2 arbitration time. *)
  for i = 0 to n - 1 do
    let sector = t.scratch.(i) in
    let code = Repro_vm.Vm.lookup vm ~sm ~sector in
    let tx = Array.unsafe_get t.vm_lat code in
    (if code = 0 then Stats.count_tlb_l1_hit stats
     else if code = 1 then Stats.count_tlb_l2_hit stats
     else begin
       Stats.count_tlb_walk stats tx;
       match ring with
       | Some r -> emit r Telemetry.Ring.kind_tlb sm (code - 2) sector t0 tx
       | None -> ()
     end);
    let t2 = fmax (t0 +. tx) t.clk.(0) in
    t.clk.(0) <- t2 +. t.inv_l2_tp;
    match Cache.access t.l2 ~sector with
    | `Hit ->
      (match ring with
       | Some r -> emit r Telemetry.Ring.kind_l2 sm 3 sector t2 0.
       | None -> ())
    | `Miss ->
      (match ring with
       | Some r -> emit r Telemetry.Ring.kind_l2 sm 2 sector t2 0.
       | None -> ());
      Stats.count_dram_sector stats;
      let t3 = fmax t2 t.clk.(1) in
      t.clk.(1) <- t3 +. t.inv_dram_cost;
      (match ring with
       | Some r -> emit r Telemetry.Ring.kind_dram sm 1 sector t3 0.
       | None -> ())
  done

(* Legacy array-of-addresses entry points, kept for tests and non-hot
   callers; they route through the SoA path via the io mailbox. *)

let check_lanes name addrs scratch =
  if Array.length addrs > Array.length scratch then
    invalid_arg (name ^ ": more lanes than the warp size")

let load t ~stats ~sm ~start ~label ~addrs =
  check_lanes "Mem_path.load" addrs t.scratch;
  t.io.(0) <- start;
  load_soa t ~stats ~label_idx:(Label.to_index label) ~sm ~arena:addrs ~off:0
    ~len:(Array.length addrs);
  t.io.(1)

let store t ~stats ~sm ~start ~addrs =
  check_lanes "Mem_path.store" addrs t.scratch;
  t.io.(0) <- start;
  store_soa t ~stats ~sm ~arena:addrs ~off:0 ~len:(Array.length addrs)

let reset t =
  begin_kernel t;
  Cache.flush t.l2;
  match t.vm with
  | Some v -> Repro_vm.Vm.flush v
  | None -> ()

let l1_probe t ~sm ~sector = Cache.probe t.l1s.(sm) ~sector

(* Raw state for the fused replay loop (same contract as {!Cache.Raw}):
   hoisted once per launch, then the per-access path is direct array
   arithmetic. *)
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
