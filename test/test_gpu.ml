(* Tests for the SIMT timing simulator. *)

module Label = Repro_gpu.Label
module Instr = Repro_gpu.Instr
module Coalesce = Repro_gpu.Coalesce
module Cache = Repro_gpu.Cache
module Config = Repro_gpu.Config
module Stats = Repro_gpu.Stats
module Mem_path = Repro_gpu.Mem_path
module Trace = Repro_gpu.Trace
module Warp_ctx = Repro_gpu.Warp_ctx
module Sm = Repro_gpu.Sm
module Device = Repro_gpu.Device
module Telemetry = Repro_gpu.Telemetry
module Page_store = Repro_mem.Page_store
module Vm = Repro_vm.Vm
module Page_table = Repro_vm.Page_table
module Policy = Repro_vm.Policy
module Pool = Repro_util.Pool

let check = Alcotest.check

(* --- labels --------------------------------------------------------- *)

let test_label_indexing () =
  List.iter
    (fun l -> check Alcotest.bool "roundtrip" true (Label.of_index (Label.to_index l) = l))
    Label.all;
  check Alcotest.int "count" (List.length Label.all) Label.count

(* --- instructions ---------------------------------------------------- *)

let test_instr_classes () =
  let load = Instr.load ~label:Label.Body [| 0; 32 |] in
  check Alcotest.bool "load is mem" true (Instr.class_of load = `Mem);
  check Alcotest.int "load active" 2 load.Instr.active;
  check Alcotest.bool "load blocks" true load.Instr.blocking;
  let c = Instr.compute ~n:5 ~label:Label.Body 4 in
  check Alcotest.int "compute expands" 5 (Instr.instruction_count c);
  check Alcotest.bool "compute class" true (Instr.class_of c = `Compute);
  check Alcotest.bool "call is ctrl" true
    (Instr.class_of (Instr.call_indirect ~label:Label.Call 8) = `Ctrl);
  check Alcotest.bool "const load is mem" true
    (Instr.class_of (Instr.const_load ~label:Label.Const_indirect 8) = `Mem);
  Alcotest.check_raises "empty load" (Invalid_argument "Instr.load: no active lanes")
    (fun () -> ignore (Instr.load ~label:Label.Body [||]))

(* --- coalescer -------------------------------------------------------- *)

let test_coalesce_basic () =
  check Alcotest.int "same sector" 1 (Coalesce.transaction_count [| 0; 8; 16; 31 |]);
  check Alcotest.int "two sectors" 2 (Coalesce.transaction_count [| 0; 32 |]);
  check Alcotest.int "fully diverged" 32
    (Coalesce.transaction_count (Array.init 32 (fun i -> i * 128)));
  check (Alcotest.array Alcotest.int) "sorted sectors" [| 0; 4 |]
    (Coalesce.sectors [| 128; 0; 130 |])

let prop_coalesce_bounds =
  QCheck.Test.make ~name:"coalescer bounds: 1..lanes transactions" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 32) (int_bound 100_000))
    (fun addrs ->
      let n = Coalesce.transaction_count (Array.of_list addrs) in
      n >= 1 && n <= List.length addrs)

(* The emission-path coalescer must agree exactly with the naive
   reference (sorted distinct sectors) for any lane count, duplicate
   pattern and ordering, at any arena offset, tag bits included. *)
let prop_coalesce_scratch_equiv =
  QCheck.Test.make ~name:"scratch coalescer matches naive reference" ~count:500
    QCheck.(
      triple
        (list_of_size (Gen.int_range 1 32) (int_bound 100_000))
        (int_bound 8) (int_bound 40))
    (fun (addrs, pad, tag) ->
      let tagged =
        List.mapi
          (fun i a -> if i mod 3 = 0 then Repro_mem.Vaddr.with_tag a ~tag else a)
          addrs
      in
      let len = List.length addrs in
      (* Embed the lane addresses at a nonzero arena offset, with slack
         after them so an overrun would read a nonzero sector. *)
      let arena = Array.make (pad + len + 4) 0x7FFF_FFE0 in
      List.iteri (fun i a -> arena.(pad + i) <- a) tagged;
      let buf = Array.make len (-1) in
      let n = Coalesce.sectors_into_unsafe ~buf ~dst:0 arena ~off:pad ~len in
      Array.sub buf 0 n = Coalesce.sectors (Array.of_list addrs))

(* The unchecked coalescer, run on a window of a larger arena into a
   window of a larger buffer, must agree with the bounds-checked
   [Coalesce.sectors] on that window alone, and must neither write [buf]
   outside [dst .. dst + count - 1] nor touch the arena. *)
let prop_coalesce_unsafe_equiv =
  QCheck.Test.make ~name:"unchecked coalescer matches checked coalescer"
    ~count:500
    QCheck.(
      triple
        (list_of_size (Gen.int_range 1 32) (int_bound 100_000))
        (int_bound 8) (int_bound 8))
    (fun (addrs, pad, dst) ->
      let len = List.length addrs in
      let arena = Array.make (pad + len) 0 in
      List.iteri (fun i a -> arena.(pad + i) <- a) addrs;
      let before = Array.copy arena in
      let buf = Array.make (dst + len) (-1) in
      let n = Coalesce.sectors_into_unsafe ~buf ~dst arena ~off:pad ~len in
      let checked = Coalesce.sectors (Array.sub arena pad len) in
      n = Array.length checked
      && Array.sub buf dst n = checked
      && Array.for_all (fun x -> x = -1) (Array.sub buf 0 dst)
      && Array.for_all (fun x -> x = -1) (Array.sub buf (dst + n) (len - n))
      && arena = before)

(* Metamorphic: the coalesced sectors are a set, so permuting the lanes
   of a warp cannot change them. *)
let prop_coalesce_lane_permutation =
  QCheck.Test.make ~name:"coalesced sectors ignore lane order" ~count:300
    QCheck.(
      pair (list_of_size (Gen.int_range 1 32) (int_bound 100_000)) (int_bound 1000))
    (fun (addrs, seed) ->
      let lanes = Array.of_list addrs in
      let perm = Array.copy lanes in
      let rng = Random.State.make [| seed |] in
      for i = Array.length perm - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t
      done;
      let coalesce a =
        let buf = Array.make (Array.length a) (-1) in
        let n =
          Coalesce.sectors_into_unsafe ~buf ~dst:0 a ~off:0
            ~len:(Array.length a)
        in
        Array.sub buf 0 n
      in
      coalesce lanes = coalesce perm)

(* --- cache ------------------------------------------------------------ *)

let small_geom = Cache.geometry ~size_bytes:1024 ~line_bytes:128 ~ways:2
(* 4 sets x 2 ways x 4 sectors *)

let test_cache_hit_after_miss () =
  let c = Cache.create small_geom in
  check Alcotest.bool "first is miss" true (Cache.access c ~sector:0 = `Miss);
  check Alcotest.bool "second is hit" true (Cache.access c ~sector:0 = `Hit)

let test_cache_sector_granularity () =
  let c = Cache.create small_geom in
  ignore (Cache.access c ~sector:0);
  (* Same line (sectors 0-3), different sector: line present, sector miss. *)
  check Alcotest.bool "sector miss on resident line" true (Cache.access c ~sector:1 = `Miss);
  check Alcotest.bool "then hits" true (Cache.access c ~sector:1 = `Hit);
  check Alcotest.bool "first sector still valid" true (Cache.probe c ~sector:0)

let test_cache_lru_eviction () =
  let c = Cache.create small_geom in
  (* Three lines mapping to set 0 (line index mod 4 = 0): lines 0, 4, 8. *)
  let sector_of_line l = l * 4 in
  ignore (Cache.access c ~sector:(sector_of_line 0));
  ignore (Cache.access c ~sector:(sector_of_line 4));
  ignore (Cache.access c ~sector:(sector_of_line 0)); (* refresh line 0 *)
  ignore (Cache.access c ~sector:(sector_of_line 8)); (* evicts line 4 *)
  check Alcotest.bool "line 0 kept" true (Cache.probe c ~sector:(sector_of_line 0));
  check Alcotest.bool "line 4 evicted" false (Cache.probe c ~sector:(sector_of_line 4));
  check Alcotest.bool "line 8 resident" true (Cache.probe c ~sector:(sector_of_line 8))

let test_cache_flush () =
  let c = Cache.create small_geom in
  ignore (Cache.access c ~sector:5);
  Cache.flush c;
  check Alcotest.bool "flushed" false (Cache.probe c ~sector:5)

let test_cache_geometry_validation () =
  Alcotest.check_raises "non power of two sets"
    (Invalid_argument "Cache.geometry: the number of sets must be a power of two")
    (fun () -> ignore (Cache.geometry ~size_bytes:(3 * 128 * 2) ~line_bytes:128 ~ways:2))

let prop_cache_hits_bounded =
  QCheck.Test.make ~name:"cache never reports more hits than accesses" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 200) (int_bound 64))
    (fun sectors ->
      let c = Cache.create small_geom in
      let hits =
        List.fold_left
          (fun acc s -> match Cache.access c ~sector:s with `Hit -> acc + 1 | `Miss -> acc)
          0 sectors
      in
      hits < List.length sectors (* the first access is always a miss *))

(* Metamorphic LRU inclusion: with the set count fixed, every sector a
   k-way cache holds an (k+1)-way cache holds too, so on the same
   sequence the wider cache never misses where the narrower one hits. *)
let prop_cache_lru_inclusion =
  QCheck.Test.make ~name:"more ways never lose a hit (LRU inclusion)"
    ~count:200
    QCheck.(
      pair (int_range 1 4) (list_of_size (Gen.int_range 1 300) (int_bound 96)))
    (fun (ways, sectors) ->
      (* 4 sets of 128 B lines at either associativity. *)
      let make w =
        Cache.create (Cache.geometry ~size_bytes:(512 * w) ~line_bytes:128 ~ways:w)
      in
      let narrow = make ways and wide = make (ways + 1) in
      List.for_all
        (fun sector ->
          let n = Cache.access narrow ~sector in
          let w = Cache.access wide ~sector in
          n = `Miss || w = `Hit)
        sectors)

(* Direct differential checks of the two recency-order LRU models
   against the reference model's MRU-first lists. Ops are [(k, x)]:
   [k = 0] flushes, [k <= 3] probes [x], anything else accesses [x]; [x]
   ranges over one line (or key) more per set than a set holds, so sets
   fill, hit at every recency position and evict. Associativities cover
   1-4 ways, 16 and 24 (not a power of two, as in [Config.v100_like]);
   caches have 32 B and 128 B lines. *)
let lru_ways = [| 1; 2; 3; 4; 16; 24 |]

let gen_lru_ops =
  QCheck.(
    pair (int_bound (Array.length lru_ways - 1))
      (list_of_size (Gen.int_range 1 600) (pair (int_bound 99) (int_bound 0xFFFF))))

let prop_cache_matches_reference =
  QCheck.Test.make
    ~name:"Cache matches the reference LRU (access, probe, resident set)"
    ~count:300
    QCheck.(pair bool gen_lru_ops)
    (fun (wide, (wi, ops)) ->
      let ways = lru_ways.(wi) and line_bytes = if wide then 128 else 32 in
      let size_bytes = 2 * ways * line_bytes in
      let c = Cache.create (Cache.geometry ~size_bytes ~line_bytes ~ways) in
      let r = Ref_model.cache ~size_bytes ~line_bytes ~ways in
      let sectors = 2 * (ways + 1) * (line_bytes / 32) in
      List.for_all
        (fun (k, x) ->
          let sector = x mod sectors in
          if k = 0 then begin
            Cache.flush c;
            Ref_model.cache_flush r;
            true
          end
          else if k <= 3 then
            Cache.probe c ~sector = Ref_model.cache_probe r sector
          else
            (Cache.access c ~sector = `Hit) = Ref_model.cache_access r sector)
        ops
      && List.for_all
           (fun sector -> Cache.probe c ~sector = Ref_model.cache_probe r sector)
           (List.init sectors Fun.id))

let prop_tlb_matches_reference =
  QCheck.Test.make
    ~name:"Tlb matches the reference LRU (access, probe, resident set)"
    ~count:300 gen_lru_ops
    (fun (wi, ops) ->
      let ways = lru_ways.(wi) in
      let t = Repro_vm.Tlb.create ~sets:2 ~ways in
      let r = Ref_model.tlb ~sets:2 ~ways in
      let keys = 2 * (ways + 1) in
      List.for_all
        (fun (k, x) ->
          let key = x mod keys in
          if k = 0 then begin
            Repro_vm.Tlb.flush t;
            Ref_model.tlb_flush r;
            true
          end
          else if k <= 3 then Repro_vm.Tlb.probe t ~key = Ref_model.tlb_probe r key
          else Repro_vm.Tlb.access t ~key = Ref_model.tlb_access r key)
        ops
      && List.for_all
           (fun key -> Repro_vm.Tlb.probe t ~key = Ref_model.tlb_probe r key)
           (List.init keys Fun.id))

(* --- mem path --------------------------------------------------------- *)

let cfg = Config.default

(* One launch of [loads.(w)] (a list of blocking loads, each a lane
   address array) as warp [w], on the path [mp]; returns the cycles. *)
let run_loads mp ~stats loads =
  let traces =
    Array.map
      (fun addrs_list ->
        let t = Trace.create () in
        List.iter
          (fun addrs ->
            ignore (Trace.emit_load_n t ~label:Label.Body ~blocking:true addrs (Array.length addrs)))
          addrs_list;
        t)
      loads
  in
  Sm.run cfg mp ~stats ~traces

let test_mem_path_latencies () =
  let stats = Stats.create () in
  let t_miss = run_loads (Mem_path.create cfg) ~stats [| [ [| 0 |] ] |] in
  let stats = Stats.create () in
  let t_hit =
    run_loads (Mem_path.create cfg) ~stats [| [ [| 0 |]; [| 0 |] ] |]
  in
  check Alcotest.bool "miss goes to DRAM" true
    (t_miss >= float_of_int (cfg.Config.l1_latency + cfg.Config.l2_latency + cfg.Config.dram_latency));
  check Alcotest.bool "hit is L1-latency fast" true
    (t_hit -. t_miss < float_of_int (cfg.Config.l1_latency + 5));
  check Alcotest.int "one transaction each" 2 (Stats.load_transactions stats);
  check Alcotest.int "one l1 hit" 1 (Stats.l1_accesses stats - 1);
  check Alcotest.bool "l1 rate 50%" true (abs_float (Stats.l1_hit_rate stats -. 0.5) < 1e-9)

let test_mem_path_l1_private_per_sm () =
  let mp = Mem_path.create cfg in
  let stats = Stats.create () in
  ignore (run_loads mp ~stats [| [ [| 0 |] ] |]);
  check Alcotest.bool "sm0 has it" true (Mem_path.l1_probe mp ~sm:0 ~sector:0);
  check Alcotest.bool "sm1 does not" false (Mem_path.l1_probe mp ~sm:1 ~sector:0)

let test_mem_path_bandwidth_serializes () =
  let diverged = Array.init 32 (fun i -> i * 4096) in
  let diverged2 = Array.init 32 (fun i -> (i + 64) * 4096) in
  let alone =
    run_loads (Mem_path.create cfg) ~stats:(Stats.create ()) [| [ diverged ] |]
  in
  let stats = Stats.create () in
  let both =
    run_loads (Mem_path.create cfg) ~stats [| [ diverged ]; [ diverged2 ] |]
  in
  (* Both warps miss to DRAM from different SMs; shared DRAM bandwidth
     must push the pair's completion past one warp's alone. *)
  check Alcotest.bool "shared dram contention" true (both > alone);
  check Alcotest.int "dram sectors (64B fills)" 128 (Stats.dram_sectors stats)

let test_mem_path_begin_kernel_flushes_l1_not_l2 () =
  let mp = Mem_path.create cfg in
  let stats = Stats.create () in
  ignore (run_loads mp ~stats [| [ [| 0 |] ] |]);
  Mem_path.begin_kernel mp;
  check Alcotest.bool "l1 flushed" false (Mem_path.l1_probe mp ~sm:0 ~sector:0);
  (* The 64 B DRAM fill installed the pair sector in L2 as well. *)
  let stats2 = Stats.create () in
  ignore (run_loads mp ~stats:stats2 [| [ [| 0 |] ] |]);
  (* L2 still warm: the reload must be an L2 hit, not a DRAM access. *)
  check Alcotest.int "no new dram sector" 0 (Stats.dram_sectors stats2);
  Mem_path.reset mp;
  let stats3 = Stats.create () in
  ignore (run_loads mp ~stats:stats3 [| [ [| 0 |] ] |]);
  check Alcotest.int "reset clears l2 too" 2 (Stats.dram_sectors stats3)

(* --- warp ctx / device ------------------------------------------------ *)

let test_warp_ctx_load_store () =
  let heap = Page_store.create () in
  Page_store.store heap 64 7;
  let ctx = Warp_ctx.create ~heap ~warp_id:0 ~lanes:[| 0; 1 |] () in
  let v = Warp_ctx.load ctx ~label:Label.Body [| 64; 72 |] in
  check (Alcotest.array Alcotest.int) "loaded" [| 7; 0 |] v;
  Warp_ctx.store ctx ~label:Label.Body [| 72; 80 |] [| 5; 6 |];
  check Alcotest.int "stored" 5 (Page_store.load heap 72);
  check Alcotest.int "trace records" 2 (Trace.length (Warp_ctx.trace ctx))

let test_warp_ctx_strips_tags () =
  let heap = Page_store.create () in
  Page_store.store heap 64 9;
  let ctx = Warp_ctx.create ~heap ~warp_id:0 ~lanes:[| 0 |] () in
  let tagged = Repro_mem.Vaddr.with_tag 64 ~tag:77 in
  let v = Warp_ctx.load ctx ~label:Label.Body [| tagged |] in
  check (Alcotest.array Alcotest.int) "tag transparent" [| 9 |] v

let test_warp_ctx_diverge () =
  let heap = Page_store.create () in
  let ctx = Warp_ctx.create ~heap ~warp_id:0 ~lanes:[| 0; 1; 2; 3 |] () in
  let seen = ref [] in
  Warp_ctx.diverge ctx ~label:Label.Body ~keys:[| 1; 2; 1; 3 |]
    (fun ~key sub idxs ->
      seen := (key, Warp_ctx.tids sub, idxs) :: !seen);
  let seen = List.rev !seen in
  check Alcotest.int "three groups" 3 (List.length seen);
  (match seen with
   | (k1, tids1, idxs1) :: (k2, _, _) :: (k3, _, _) :: _ ->
     check Alcotest.int "first-occurrence order" 1 k1;
     check Alcotest.int "second" 2 k2;
     check Alcotest.int "third" 3 k3;
     check (Alcotest.array Alcotest.int) "subset tids" [| 0; 2 |] tids1;
     check (Alcotest.array Alcotest.int) "parent idxs" [| 0; 2 |] idxs1
   | _ -> Alcotest.fail "unexpected grouping");
  (* One ctrl instruction per executed subset. *)
  check Alcotest.int "ctrl per group" 3 (Trace.length (Warp_ctx.trace ctx))

let test_warp_ctx_if () =
  let heap = Page_store.create () in
  let ctx = Warp_ctx.create ~heap ~warp_id:0 ~lanes:[| 10; 11; 12 |] () in
  let then_tids = ref [||] and else_tids = ref [||] in
  Warp_ctx.if_ ctx ~label:Label.Body ~pred:[| true; false; true |]
    (fun sub _ -> then_tids := Warp_ctx.tids sub)
    (Some (fun sub _ -> else_tids := Warp_ctx.tids sub));
  check (Alcotest.array Alcotest.int) "then lanes" [| 10; 12 |] !then_tids;
  check (Alcotest.array Alcotest.int) "else lanes" [| 11 |] !else_tids

let test_warp_ctx_width_mismatch () =
  let heap = Page_store.create () in
  let ctx = Warp_ctx.create ~heap ~warp_id:0 ~lanes:[| 0; 1 |] () in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Warp_ctx.load: per-lane array width mismatch") (fun () ->
      ignore (Warp_ctx.load ctx ~label:Label.Body [| 0 |]))

let test_device_runs_kernel () =
  let heap = Page_store.create () in
  let device = Device.create ~heap () in
  let out = Repro_mem.Address_space.create () in
  let arena = Repro_mem.Address_space.reserve out ~name:"buf" ~size:4096 in
  let base = arena.Repro_mem.Address_space.base in
  Device.launch device ~n_threads:100 (fun ctx ->
      let tids = Warp_ctx.tids ctx in
      let addrs = Array.map (fun t -> base + (8 * t)) tids in
      Warp_ctx.store ctx ~label:Label.Body addrs (Array.map (fun t -> t * 2) tids));
  for t = 0 to 99 do
    check Alcotest.int "thread wrote" (2 * t) (Page_store.load heap (base + (8 * t)))
  done;
  check Alcotest.bool "cycles advanced" true (Stats.cycles (Device.stats device) > 0.);
  check Alcotest.int "one launch" 1 (Device.launches device);
  (* 100 threads = 4 warps, one store each. *)
  check Alcotest.int "mem instrs" 4 (Stats.instructions (Device.stats device) `Mem)

let test_device_partial_warp () =
  let heap = Page_store.create () in
  let device = Device.create ~heap () in
  let widths = ref [] in
  Device.launch device ~n_threads:40 (fun ctx -> widths := Warp_ctx.n_active ctx :: !widths);
  check (Alcotest.list Alcotest.int) "32 + tail of 8" [ 32; 8 ] (List.rev !widths)

let test_device_reset () =
  let heap = Page_store.create () in
  let device = Device.create ~heap () in
  Device.launch device ~n_threads:32 (fun ctx -> Warp_ctx.compute ctx ~label:Label.Body);
  Device.reset_stats device;
  check (Alcotest.float 1e-9) "cycles reset" 0. (Stats.cycles (Device.stats device));
  check Alcotest.int "launches reset" 0 (Device.launches device)

let test_device_kernel_timeline () =
  let heap = Page_store.create () in
  let device = Device.create ~heap () in
  let kernel ctx =
    let addrs = Array.map (fun t -> 1 lsl 20 lor (t * 64)) (Warp_ctx.tids ctx) in
    ignore (Warp_ctx.load ctx ~label:Label.Vtable_load addrs);
    Warp_ctx.compute ctx ~label:Label.Body
  in
  Device.launch device ~n_threads:64 kernel;
  Device.launch device ~n_threads:32 kernel;
  let timeline = Device.kernel_timeline device in
  check Alcotest.int "one entry per launch" 2 (List.length timeline);
  (* Accumulating the per-launch deltas reproduces the device totals
     exactly, float counters included — same add sequence, same result. *)
  let acc = Stats.create () in
  List.iter (Stats.add acc) timeline;
  let total = Device.stats device in
  check Alcotest.bool "cycles bit-exact" true
    (Stats.cycles acc = Stats.cycles total);
  check Alcotest.int "load transactions" (Stats.load_transactions total)
    (Stats.load_transactions acc);
  check Alcotest.bool "stall cycles bit-exact" true
    (Stats.stall_cycles acc Label.Vtable_load
     = Stats.stall_cycles total Label.Vtable_load);
  Device.reset_stats device;
  check Alcotest.int "reset clears timeline" 0
    (List.length (Device.kernel_timeline device))

let test_sm_blocking_latency_attribution () =
  let heap = Page_store.create () in
  let device = Device.create ~heap () in
  Device.launch device ~n_threads:32 (fun ctx ->
      let addrs = Array.map (fun t -> 1 lsl 20 lor (t * 4096)) (Warp_ctx.tids ctx) in
      ignore (Warp_ctx.load ctx ~label:Label.Vtable_load addrs));
  let stats = Device.stats device in
  check Alcotest.bool "stall attributed to the label" true
    (Stats.stall_cycles stats Label.Vtable_load > 0.);
  check (Alcotest.float 1e-9) "no stall on other labels" 0.
    (Stats.stall_cycles stats Label.Coal_lookup)

let test_more_warps_hide_latency () =
  (* Same per-thread work; oversubscription must not slow things down
     proportionally — latency hiding is the GPU's whole premise. *)
  let run n_threads =
    let heap = Page_store.create () in
    let device = Device.create ~heap () in
    Device.launch device ~n_threads (fun ctx ->
        let addrs = Array.map (fun t -> (t * 4096) land 0xFFFFF) (Warp_ctx.tids ctx) in
        ignore (Warp_ctx.load ctx ~label:Label.Body addrs);
        Warp_ctx.compute ctx ~n:4 ~label:Label.Body);
    Stats.cycles (Device.stats device)
  in
  let one_warp = run 32 in
  let many_warps = run (32 * 64) in
  check Alcotest.bool "64x work is far less than 64x time" true
    (many_warps < one_warp *. 32.)

(* --- SoA trace storage ------------------------------------------------ *)

let test_trace_soa_roundtrip () =
  let t = Trace.create () in
  let tagged = Repro_mem.Vaddr.with_tag 64 ~tag:5 in
  let off = Trace.emit_load_n t ~label:Label.Body ~blocking:true [| tagged; 128 |] 2 in
  Trace.emit_compute t ~label:Label.Body ~n:3 ~blocking:false ~active:2;
  (* Emission strips tag bits on the way into the lane arena. *)
  check Alcotest.int "arena canonical" 64 (Trace.lane_arena t).(off);
  check Alcotest.int "arena second lane" 128 (Trace.lane_arena t).(off + 1);
  check Alcotest.int "load opcode" Trace.op_load (Trace.op t 0);
  check Alcotest.int "label index" (Label.to_index Label.Body)
    (Trace.label_index t 0);
  check Alcotest.bool "blocking" true (Trace.is_blocking t 0);
  check Alcotest.int "repeat of compute" 3 (Trace.repeat t 1);
  check Alcotest.int "instruction total" 4 (Trace.instruction_total t);
  (* A memory record's payload is its lane slice and its count-prefixed
     sector list; others have none. *)
  check Alcotest.int "payload width" 2 (Trace.active t 0);
  check Alcotest.int "lane payload" 2 (Trace.lane_arena_length t);
  check (Alcotest.array Alcotest.int) "sector payload" [| 2; 2; 4 |]
    (Array.sub (Trace.sector_arena t) 0 (Trace.sector_arena_length t))

let test_trace_emit_opcodes () =
  let t = Trace.create () in
  ignore (Trace.emit_load_n t ~label:Label.Vtable_load ~blocking:true [| 256 |] 1);
  Trace.emit_ctrl t ~label:Label.Body ~n:2 ~active:7;
  check Alcotest.int "length" 2 (Trace.length t);
  check (Alcotest.list Alcotest.int) "opcodes preserved"
    [ Trace.op_load; Trace.op_ctrl ] [ Trace.op t 0; Trace.op t 1 ];
  check Alcotest.int "ctrl repeat" 2 (Trace.repeat t 1);
  check Alcotest.int "ctrl active lanes" 7 (Trace.active t 1)

(* --- zero-allocation replay ------------------------------------------- *)

let canned_traces ~n_warps ~n_instrs =
  let heap = Page_store.create () in
  Array.init n_warps (fun warp_id ->
      let lanes = Array.init 32 (fun l -> (warp_id * 32) + l) in
      let ctx = Warp_ctx.create ~heap ~warp_id ~lanes () in
      for i = 0 to n_instrs - 1 do
        match i mod 5 with
        | 0 ->
          let base = (i * 544) land 0xFFFF8 in
          ignore
            (Warp_ctx.load ctx ~label:Label.Body
               (Array.map (fun l -> base + (8 * (l land 31))) lanes))
        | 1 ->
          let base = (i * 288) land 0xFFFF8 in
          Warp_ctx.store ctx ~label:Label.Body
            (Array.map (fun l -> base + (8 * (l land 31))) lanes)
            lanes
        | 2 -> Warp_ctx.compute ctx ~n:3 ~label:Label.Body
        | 3 -> Warp_ctx.ctrl ctx ~label:Label.Body
        | _ -> Warp_ctx.call_indirect ctx ~label:Label.Call
      done;
      Warp_ctx.trace ctx)

(* --- the sector arena against the naive coalescer ------------------------ *)

(* Each memory record's count-prefixed sector list, walked in record
   order as replay walks it, and whether the walk ended exactly at the
   arena's live length. *)
let sector_lists t =
  let a = Trace.sector_arena t in
  let c = ref 0 in
  let lists =
    List.filter_map
      (fun i ->
        let op = Trace.op t i in
        if op = Trace.op_load || op = Trace.op_store then begin
          let n = a.(!c) in
          let l = Array.sub a (!c + 1) n in
          c := !c + 1 + n;
          Some l
        end
        else None)
      (List.init (Trace.length t) Fun.id)
  in
  (lists, !c = Trace.sector_arena_length t)

(* Random memory records (1-32 lanes, unsorted, duplicates from a few
   sectors at small spreads, tag bits on every other lane), emitted as
   loads, stores and scratch-buffer loads between compute records into a
   reused scratch trace: every record's sector list must equal the naive
   [Coalesce.sectors] of the lanes the test generated, straight after
   emission and in both sealed copies (the pool's first seal and a
   column hit). *)
let prop_sector_arena_matches_naive =
  QCheck.Test.make ~name:"sector arena matches the naive coalescer" ~count:300
    QCheck.(
      list_of_size (Gen.int_range 1 40)
        (quad (int_bound 3)
           (list_of_size (Gen.int_range 1 32) (int_bound 1023))
           (int_bound Repro_mem.Vaddr.max_tag)
           (oneofl [ 1; 8; 64; 4096 ])))
    (fun records ->
      let t = Trace.create ~capacity:1 () in
      ignore (Trace.emit_load_n t ~label:Label.Body ~blocking:true [| 4096 |] 1);
      Trace.reset t;
      let lanes =
        List.filter_map
          (fun (kind, offsets, tag, spread) ->
            let addrs =
              Array.of_list
                (List.mapi
                   (fun i a ->
                     if i mod 2 = 0 then Repro_mem.Vaddr.with_tag (a * spread) ~tag
                     else a * spread)
                   offsets)
            in
            let n = Array.length addrs in
            match kind with
            | 0 ->
              ignore (Trace.emit_load_n t ~label:Label.Body ~blocking:true addrs n);
              Some addrs
            | 1 ->
              ignore (Trace.emit_store_n t ~label:Label.Body addrs n);
              Some addrs
            | 2 ->
              (* A scratch buffer wider than the warp, stale past [n]. *)
              let buf = Array.append addrs (Array.make 8 0x7FFF_FFE0) in
              ignore (Trace.emit_load_n t ~label:Label.Body ~blocking:false buf n);
              Some addrs
            | _ ->
              Trace.emit_compute t ~label:Label.Body ~n:1 ~blocking:false
                ~active:n;
              None)
          records
      in
      let expected = List.map Coalesce.sectors lanes in
      let pool = Trace.Intern.create () in
      let first = Trace.Intern.seal pool t in
      let hit = Trace.Intern.seal pool t in
      Trace.shares_columns first hit
      && List.for_all
           (fun tr -> sector_lists tr = (expected, true))
           [ t; first; hit ]
      && Trace.lane_arena_length first = 0
      && Trace.lane_arena_length hit = 0)

(* [Warp_ctx]'s one load body takes a warp-uniform shortcut when every
   lane names one address. Against a twin store and trace driven lane by
   lane — [Trace.emit_load_n], then [Page_store.load_byte_width] of each
   stripped lane, the first failing lane's exception winning — [load],
   [load_nonblocking] and [load_into] (from a wider, stale scratch
   buffer) must return the same values or raise the same exception, and
   emit the same records, each with the naive [Coalesce.sectors] of its
   stripped lanes. Lane vectors are mostly uniform: all equal, all but
   one equal, one address under different tags, or random; addresses are
   aligned, misaligned, tagged or on an untouched page, over two pages
   that share a page-memo slot and one in another directory subtree. *)
type uniform_lane = { page : int; word : int; misalign : bool; tag : int }

type uniform_op = {
  u_width : int;
  u_into : bool;
  u_blocking : bool;
  u_label : int;
  u_lanes : uniform_lane array;
}

let uniform_pages =
  [| 0x10; 0x10 + Page_store.memo_slots; (3 lsl 24) lor 0x10; 0x7_0000 |]

let uniform_labels = [| Label.Body; Label.Vtable_load; Label.Vfunc_load |]

let uniform_addr width l =
  let a =
    (uniform_pages.(l.page) * Page_store.page_bytes)
    + ((l.word * 4) land lnot (width - 1))
    + if l.misalign then width / 2 else 0
  in
  if l.tag = 0 then a else Repro_mem.Vaddr.with_tag a ~tag:l.tag

let gen_uniform_op =
  QCheck.Gen.(
    let lane =
      map
        (fun ((page, word), (misalign, tagged, tag)) ->
          { page; word; misalign; tag = (if tagged then 1 + tag else 0) })
        (pair
           (pair (int_bound 3) (int_bound 1023))
           (triple (frequency [ (6, return false); (1, return true) ])
              (frequency [ (3, return false); (1, return true) ])
              (int_bound (Repro_mem.Vaddr.max_tag - 1))))
    in
    int_range 1 32 >>= fun n ->
    map
      (fun (((u_width, u_into), (u_blocking, u_label)), (shape, (a, b, j), tags, rnd)) ->
        let u_lanes =
          match shape with
          | 0 -> Array.make n a
          | 1 -> Array.init n (fun i -> if i = j mod n then b else a)
          | 2 -> Array.init n (fun i -> { a with tag = tags.(i) })
          | _ -> rnd
        in
        { u_width; u_into; u_blocking; u_label; u_lanes })
      (pair
         (pair (pair (oneofl [ 4; 8 ]) bool) (pair bool (int_bound 2)))
         (quad
            (frequency [ (4, return 0); (2, return 1); (1, return 2); (1, return 3) ])
            (triple lane lane (int_bound 31))
            (array_repeat n (int_bound 3))
            (array_repeat n lane))))

let print_uniform_ops ops =
  String.concat "\n"
    (List.map
       (fun o ->
         Printf.sprintf "%s w%d%s: [%s]"
           (if o.u_into then "load_into" else "load")
           o.u_width
           (if o.u_blocking then "" else " nonblocking")
           (String.concat "; "
              (Array.to_list (Array.map (fun l -> Printf.sprintf "0x%x" (uniform_addr o.u_width l)) o.u_lanes))))
       ops)

let prop_uniform_loads_invisible =
  QCheck.Test.make ~name:"warp-uniform loads match the per-lane reference" ~count:200
    (QCheck.make ~print:print_uniform_ops
       QCheck.Gen.(list_size (int_range 1 30) gen_uniform_op))
    (fun ops ->
      let heap = Page_store.create () and ref_heap = Page_store.create () in
      for p = 0 to 2 do
        for w = 0 to 511 do
          let a = (uniform_pages.(p) * Page_store.page_bytes) + (w * 8) in
          let v = ((p + 1) * 0x9E37_79B9 * (w + 1)) land 0x3FFF_FFFF_FFFF_FFFF in
          Page_store.store heap a v;
          Page_store.store ref_heap a v
        done
      done;
      let trace = Trace.create ~capacity:1 () and ref_trace = Trace.create ~capacity:1 () in
      let expected =
        List.map
          (fun o ->
            let width = o.u_width and label = uniform_labels.(o.u_label) in
            let addrs = Array.map (uniform_addr width) o.u_lanes in
            let n = Array.length addrs in
            let stripped = Array.map Repro_mem.Vaddr.strip addrs in
            ignore (Trace.emit_load_n ref_trace ~label ~blocking:o.u_blocking addrs n);
            let want =
              match Array.map (fun a -> Page_store.load_byte_width ref_heap a ~width) stripped with
              | v -> Ok v
              | exception e -> Error e
            in
            let ctx =
              Warp_ctx.create ~heap ~trace ~warp_id:0 ~lanes:(Array.init n Fun.id) ()
            in
            let got =
              match
                if o.u_into then
                  let buf = Array.append addrs (Array.make 5 0x7FFF_FFE0) in
                  Warp_ctx.load_into ~width ctx ~label ~blocking:o.u_blocking ~addrs:buf ~n
                else if o.u_blocking then Warp_ctx.load ~width ctx ~label addrs
                else Warp_ctx.load_nonblocking ~width ctx ~label addrs
              with
              | v -> Ok v
              | exception e -> Error e
            in
            if got <> want then
              QCheck.Test.fail_reportf "values or exception differ: %s, reference %s"
                (match got with Ok _ -> "values" | Error e -> Printexc.to_string e)
                (match want with Ok _ -> "values" | Error e -> Printexc.to_string e);
            Coalesce.sectors stripped)
          ops
      in
      let columns t =
        List.init (Trace.length t) (fun i ->
            (Trace.op t i, Trace.label_index t i, Trace.active t i, Trace.repeat t i,
             Trace.is_blocking t i))
      in
      columns trace = columns ref_trace
      && Trace.instruction_total trace = Trace.instruction_total ref_trace
      && sector_lists trace = (expected, true)
      && sector_lists ref_trace = (expected, true)
      && Page_store.touched_pages heap = Page_store.touched_pages ref_heap)

(* A converged 32-lane load, tagged, through [load_into] and [load]:
   after warm-up each allocates its value array (32 words and a header)
   and nothing else. *)
let test_uniform_load_allocation () =
  let heap = Page_store.create () in
  Page_store.store heap 4096 7;
  let trace = Trace.create () in
  let ctx = Warp_ctx.create ~heap ~trace ~warp_id:0 ~lanes:(Array.init 32 Fun.id) () in
  let addr = Repro_mem.Vaddr.with_tag 4096 ~tag:3 in
  let exact = Array.make 32 addr in
  let buf = Warp_ctx.addr_scratch ctx 32 in
  Array.fill buf 0 32 addr;
  let round () =
    Trace.reset trace;
    for _ = 1 to 10 do
      ignore (Warp_ctx.load_into ctx ~label:Label.Vtable_load ~blocking:true ~addrs:buf ~n:32);
      ignore (Warp_ctx.load ctx ~label:Label.Vtable_load exact)
    done
  in
  round ();
  check (Alcotest.array Alcotest.int) "the word, once per lane" (Array.make 32 7)
    (Warp_ctx.load ctx ~label:Label.Body exact);
  let w0 = Gc.minor_words () in
  for _ = 1 to 100 do
    round ()
  done;
  let words = Gc.minor_words () -. w0 in
  check (Alcotest.float 0.) "minor words of 2000 uniform loads" (2000. *. 33.) words

(* A sealed trace of [canned_traces] holds one count plus the distinct
   sectors per memory record, exactly sized, and no lanes: fewer cells
   than the unsealed trace's lanes. *)
let test_sealed_trace_holds_sectors () =
  let pool = Trace.Intern.create () in
  Array.iter
    (fun tr ->
      let sealed = Trace.Intern.seal pool tr in
      let lanes = Trace.lane_arena tr in
      let off = ref 0 and cells = ref 0 in
      for i = 0 to Trace.length tr - 1 do
        let op = Trace.op tr i in
        if op = Trace.op_load || op = Trace.op_store then begin
          let n = Trace.active tr i in
          cells :=
            !cells + 1 + Array.length (Coalesce.sectors (Array.sub lanes !off n));
          off := !off + n
        end
      done;
      check Alcotest.int "1 + distinct sectors per memory record" !cells
        (Trace.sector_arena_length sealed);
      check Alcotest.int "sector arena exactly sized"
        (Trace.sector_arena_length sealed)
        (Array.length (Trace.sector_arena sealed));
      check Alcotest.int "no lanes" 0 (Array.length (Trace.lane_arena sealed));
      check Alcotest.bool "fewer cells than lanes" true
        (Trace.sector_arena_length sealed < Trace.lane_arena_length tr))
    (canned_traces ~n_warps:8 ~n_instrs:300)

(* A page table over the low megabyte that [traces_of_ops] and
   [canned_traces] address, with holes left unmapped (every access there
   walks) and, under [Coalesce], two promoted spans on large pages. *)
let test_table policy =
  Page_table.build ~policy
    ~arenas:[ (0, 0x30000); (0x40000, 0x50000); (0xA0000, 0x40000) ]
    ~promoted:
      [ (0x40000, 0x60000, 1); (0x60000, 0x90000, 1); (0xA0000, 0xB0000, 2) ]
    ()

let test_vm policy = Vm.create ~n_sms:cfg.Config.n_sms ~table:(test_table policy) ()

let telemetry_of ~ring ~window =
  if ring || window <> None then
    Some (Telemetry.create { Telemetry.window; trace = ring; trace_capacity = 4096 })
  else None

(* Minor words of the second of two replays of [traces] (the first warms
   code paths and growable state). *)
let replay_minor_words ?vm ?telemetry ?(streamed = false) traces =
  let mp = Mem_path.create cfg in
  Mem_path.set_vm mp vm;
  let stats = Stats.create () in
  (* Streamed: every warp is awaited through a feed, as a launch replayed
     on a helper domain is. *)
  let feed = Pool.Feed.create () in
  Pool.Feed.publish feed (Array.length traces + 1);
  let await = if streamed then Some (Pool.Feed.await feed) else None in
  let run () =
    Option.iter
      (fun tel ->
        Option.iter
          (fun r -> Repro_util.Event_ring.begin_launch r ~base:0.)
          tel.Telemetry.ring)
      telemetry;
    ignore (Sm.run ?telemetry ?await cfg mp ~stats ~traces)
  in
  run ();
  let w0 = Gc.minor_words () in
  run ();
  Gc.minor_words () -. w0

(* The timing phase must allocate a per-launch constant (column views,
   activation lists, the event heap) and nothing per instruction:
   replaying 10x the instructions may not allocate more than a small
   fixed slack over the short trace. This is the invariant DESIGN.md
   documents; any boxed float, closure or record sneaking into the loop,
   the coalescer, the caches or the translation path breaks it loudly. *)
let check_zero_allocation ?streamed name ~vm ?(telemetry = fun () -> None) () =
  let short =
    replay_minor_words ?vm:(vm ()) ?telemetry:(telemetry ()) ?streamed
      (canned_traces ~n_warps:8 ~n_instrs:300)
  in
  let long =
    replay_minor_words ?vm:(vm ()) ?telemetry:(telemetry ()) ?streamed
      (canned_traces ~n_warps:8 ~n_instrs:3000)
  in
  check Alcotest.bool
    (Printf.sprintf
       "%s allocation independent of trace length (short=%.0f long=%.0f)" name
       short long)
    true
    (long <= short +. 256.)

let test_replay_zero_allocation () =
  check_zero_allocation "plain" ~vm:(fun () -> None) ()

let test_fused_replay_zero_allocation () =
  (* A translated launch calls [Vm.lookup] per sector from the replay
     loop's one load walk and one store walk. *)
  check_zero_allocation "translated"
    ~vm:(fun () -> Some (test_vm Policy.Flat_4k))
    ()

let test_replay_zero_allocation_traced () =
  (* Recording an event is six array stores plus a bump, so enabling the
     tracer must not cost an allocation per instruction either, even when
     the ring wraps and drops. Ring-only: windowed sampling owns one Stats
     row per window, a deliberate per-window allocation. *)
  List.iter
    (fun (name, vm) ->
      check_zero_allocation name ~vm
        ~telemetry:(fun () -> telemetry_of ~ring:true ~window:None)
        ())
    [
      ("tracer-on", fun () -> None);
      ("tracer-on translated", fun () -> Some (test_vm Policy.Coalesce));
    ]

let test_streamed_replay_zero_allocation () =
  (* The await hook runs once per warp activation, never per
     instruction. *)
  List.iter
    (fun (name, vm, ring) ->
      check_zero_allocation ~streamed:true name ~vm
        ~telemetry:(fun () -> telemetry_of ~ring ~window:None)
        ())
    [
      ("streamed", (fun () -> None), false);
      ("streamed translated", (fun () -> Some (test_vm Policy.Flat_4k)), false);
      ("streamed tracer-on", (fun () -> None), true);
    ]

(* A kernel that raises while a helper replays the launch behind it:
   the caller sees the kernel's exception, the helper is joined, and
   nothing waits on the warps that were never emitted. *)
let test_device_raise_in_scope () =
  let heap = Page_store.create () in
  let device = Device.create ~heap () in
  let kernel ctx = Warp_ctx.compute ctx ~n:4 ~label:Label.Body in
  let raised =
    match
      Pool.Helper.scope (fun () ->
          Device.launch device ~n_threads:(32 * 600) kernel;
          Device.launch device ~n_threads:(32 * 2000) (fun ctx ->
              if Warp_ctx.warp_id ctx = 1500 then failwith "kernel fault";
              kernel ctx))
    with
    | () -> None
    | exception Failure m -> Some m
  in
  check (Alcotest.option Alcotest.string) "re-raised on the caller"
    (Some "kernel fault") raised;
  check Alcotest.int "no live helper" 1 (Pool.live_domains ())

(* A vm swapped between launches reaches only the later launch, even
   while the earlier one still replays on a helper. *)
let test_device_set_vm_in_scope () =
  let run scoped =
    let heap = Page_store.create () in
    let device = Device.create ~heap () in
    let kernel ctx =
      for k = 1 to 8 do
        ignore
          (Warp_ctx.load ctx ~label:Label.Body
             (Array.map (fun t -> (t * 8 * k * 67) land 0xFFFF8) (Warp_ctx.tids ctx)))
      done
    in
    let go () =
      Device.set_vm device (Some (test_vm Policy.Flat_4k));
      Device.launch device ~n_threads:(32 * 1000) kernel;
      (* Other latencies too: [set_vm] rewrites the memory path's
         latency table in place. *)
      let config = { Vm.default_config with Vm.l2_latency = 90.; walk_latency_per_level = 200. } in
      Device.set_vm device
        (Some (Vm.create ~config ~n_sms:cfg.Config.n_sms ~table:(test_table Policy.Coalesce) ()));
      Device.launch device ~n_threads:(32 * 1000) kernel;
      Stats.to_raw (Device.stats device)
    in
    if scoped then Pool.Helper.scope go else go ()
  in
  check Alcotest.bool "overlapped equals inline" true (run true = run false)

(* A launch spawns the scope's helper only when it has more warps than
   the resident slots; smaller launches before it replay inline, and the
   ones after it queue on the helper. Either way the stats equal an
   inline run's. *)
let test_device_helper_threshold () =
  let slots = cfg.Config.n_sms * cfg.Config.max_warps_per_sm in
  let kernel ctx =
    ignore
      (Warp_ctx.load ctx ~label:Label.Body
         (Array.map (fun t -> (t * 72) land 0xFFFF8) (Warp_ctx.tids ctx)))
  in
  let run scoped =
    let device = Device.create ~heap:(Page_store.create ()) () in
    let live = ref [] in
    let launch warps =
      Device.launch device ~n_threads:(32 * warps) kernel;
      live := Pool.live_domains () :: !live
    in
    let go () =
      launch slots;
      launch (slots + 1);
      launch 1;
      Stats.to_raw (Device.stats device)
    in
    let stats = if scoped then Pool.Helper.scope go else go () in
    (stats, List.rev !live)
  in
  let stats, live = run true in
  let stats', live' = run false in
  let spare = if Pool.available_workers () > 1 then 2 else 1 in
  check Alcotest.(list int) "helper from the first launch above the slots"
    [ 1; spare; spare ] live;
  check Alcotest.(list int) "no helper outside a scope" [ 1; 1; 1 ] live';
  check Alcotest.bool "overlapped equals inline" true (stats = stats');
  check Alcotest.int "helper joined" 1 (Pool.live_domains ())

(* --- the replay loop against the reference model ---------------------- *)

(* Random warp programs over the full instruction vocabulary — converged
   and per-lane-diverged loads, non-blocking loads, stores, dependent and
   independent compute, ctrl, constant loads, indirect and direct calls —
   across mixed warp widths (full, partial, single-lane). Returns the
   unsealed traces and, per warp, the lane addresses of its memory
   records in record order: what the reference model coalesces itself. *)
let traces_of_ops ops =
  let heap = Page_store.create () in
  let widths = [| 32; 17; 32; 5 |] in
  let logged = Array.make (Array.length widths) [] in
  let traces =
    Array.init (Array.length widths) (fun warp_id ->
        let lanes = Array.init widths.(warp_id) (fun l -> (warp_id * 32) + l) in
        let ctx = Warp_ctx.create ~heap ~warp_id ~lanes () in
        let log addrs =
          logged.(warp_id) <- addrs :: logged.(warp_id);
          addrs
        in
        let dense base =
          log (Array.map (fun l -> base + (8 * (l land 31))) lanes)
        in
        List.iter
          (fun (op, r) ->
            let base = (r * 8) land 0xFFFF8 in
            match op with
            | 0 -> ignore (Warp_ctx.load ctx ~label:Label.Body (dense base))
            | 1 ->
              (* One sector per lane: the diverged vTable pattern. *)
              ignore
                (Warp_ctx.load ctx ~label:Label.Vtable_load
                   (log
                      (Array.map
                         (fun l -> (base + (4096 * (l land 31))) land 0xFFFFF8)
                         lanes)))
            | 2 ->
              Warp_ctx.store ctx ~label:Label.Body (dense base)
                (Array.map (fun l -> l + 1) lanes)
            | 3 -> Warp_ctx.compute ctx ~n:(1 + (r mod 4)) ~label:Label.Body
            | 4 -> Warp_ctx.ctrl ctx ~label:Label.Body
            | 5 -> Warp_ctx.call_indirect ctx ~label:Label.Call
            | 6 ->
              ignore
                (Warp_ctx.load_nonblocking ctx ~label:Label.Body (dense base))
            | 7 ->
              Warp_ctx.compute ctx ~n:(1 + (r mod 3)) ~blocking:false
                ~label:Label.Body
            | 8 -> Warp_ctx.const_load ctx ~label:Label.Const_indirect
            | _ -> Warp_ctx.call_direct ctx ~label:Label.Body)
          ops;
        Warp_ctx.trace ctx)
  in
  (traces, Array.map List.rev logged)

(* A launch's traces sealed through one pool, as [Device.launch] does. *)
let seal traces =
  let pool = Trace.Intern.create () in
  Array.map (Trace.Intern.seal pool) traces

(* Tiny machines where every set, way and SM boundary is exercised: one
   or two SMs, one or two resident warps, 1-2-way L1s of two sets, an L2
   of four sets, and TLBs of two sets. *)
let tiny_cfg ?(l2_line = 128) ~n_sms ~warps ~l1_ways ~l2_ways () =
  {
    cfg with
    Config.n_sms;
    max_warps_per_sm = warps;
    l1_geometry =
      Cache.geometry ~size_bytes:(256 * l1_ways) ~line_bytes:128 ~ways:l1_ways;
    l2_geometry =
      Cache.geometry ~size_bytes:(4 * l2_line * l2_ways) ~line_bytes:l2_line
        ~ways:l2_ways;
  }

let tiny_vm_config =
  { Vm.default_config with l1_sets = 2; l1_ways = 1; l2_sets = 2; l2_ways = 2 }

(* Beyond the tiny ones: a 32 B-line L2, whose DRAM pair sector lies in
   another line; a 4-way L2, where a hit on a middle way moves it to the
   front; and [Config.v100_like], with its 24-way L2. *)
let machines =
  [|
    (cfg, Vm.default_config);
    (tiny_cfg ~n_sms:1 ~warps:1 ~l1_ways:1 ~l2_ways:1 (), tiny_vm_config);
    (tiny_cfg ~n_sms:1 ~warps:2 ~l1_ways:2 ~l2_ways:1 (), tiny_vm_config);
    (tiny_cfg ~n_sms:2 ~warps:1 ~l1_ways:1 ~l2_ways:2 (), tiny_vm_config);
    (tiny_cfg ~n_sms:2 ~warps:2 ~l1_ways:2 ~l2_ways:2 (), tiny_vm_config);
    ( tiny_cfg ~l2_line:32 ~n_sms:2 ~warps:2 ~l1_ways:2 ~l2_ways:2 (),
      tiny_vm_config );
    (tiny_cfg ~n_sms:1 ~warps:2 ~l1_ways:1 ~l2_ways:4 (), tiny_vm_config);
    (Config.v100_like, Vm.default_config);
  |]

(* Everything a replay produces, marshalled so floats compare bit for
   bit: per-launch cycles and window rows, the accumulated stats, and
   the ring's events. Launches share one hierarchy and one time axis, as
   on a device. *)
let replay_sm (cfg, vcfg) ~policy ~ring ~window launches =
  let mp = Mem_path.create cfg in
  Mem_path.set_vm mp
    (Option.map
       (fun p ->
         Vm.create ~config:vcfg ~n_sms:cfg.Config.n_sms ~table:(test_table p) ())
       policy);
  let telemetry = telemetry_of ~ring ~window in
  let stats = Stats.create () in
  let base = ref 0. in
  let per_launch =
    List.map
      (fun traces ->
        Option.iter
          (fun tel ->
            Option.iter
              (fun r -> Repro_util.Event_ring.begin_launch r ~base:!base)
              tel.Telemetry.ring;
            Option.iter Telemetry.Sampler.begin_launch tel.Telemetry.sampler)
          telemetry;
        let cycles = Sm.run ?telemetry cfg mp ~stats ~traces in
        base := !base +. cycles;
        let rows =
          match telemetry with
          | Some { Telemetry.sampler = Some s; _ } ->
            Telemetry.Sampler.finish_launch s ~cycles;
            Array.to_list (Array.map Stats.to_raw (Telemetry.Sampler.take s))
          | Some _ | None -> []
        in
        (cycles, rows))
      launches
  in
  let events =
    match telemetry with
    | Some { Telemetry.ring = Some r; _ } ->
      Array.to_list (Repro_util.Event_ring.events r)
    | Some _ | None -> []
  in
  Marshal.to_string (per_launch, Stats.to_raw stats, events) [ Marshal.No_sharing ]

let replay_ref (cfg, vcfg) ~policy ~ring ~window launches =
  let m =
    Ref_model.create ~vm:(Option.map (fun p -> (test_table p, vcfg)) policy) cfg
  in
  let stats = Stats.create () in
  let base = ref 0. in
  let events = ref [] in
  let per_launch =
    List.map
      (fun (traces, lanes) ->
        let cycles, rows, evs =
          Ref_model.launch m ~window ~base:!base ~stats ~lanes traces
        in
        base := !base +. cycles;
        events := !events @ evs;
        (cycles, List.map Stats.to_raw rows))
      launches
  in
  (* The ring keeps the most recent [trace_capacity] events. *)
  let events =
    if not ring then []
    else
      let n = List.length !events in
      List.filteri (fun i _ -> i >= n - 4096) !events
  in
  Marshal.to_string (per_launch, Stats.to_raw stats, events) [ Marshal.No_sharing ]

(* Two launches (the second starts with flushed L1s and L1 TLBs and the
   first launch's L2 and L2 TLB) on a random machine, with no vm and
   under every page policy (unmapped holes included), with telemetry
   off, ring-only, sampler-only and both: [Sm.run], replaying the sealed
   traces (sector lists, no lanes), must agree bit for bit with the
   reference model, which coalesces the generated lanes itself. *)
let prop_run_matches_reference =
  QCheck.Test.make
    ~name:"Sm.run matches the reference model (cycles, stats, windows, events)"
    ~count:160
    QCheck.(
      pair
        (int_bound (Array.length machines - 1))
        (list_of_size (Gen.int_range 1 60) (pair (int_bound 9) (int_bound 0xFFFF))))
    (fun (mi, ops) ->
      let machine = machines.(mi) in
      let launches = [ traces_of_ops ops; traces_of_ops (List.rev ops) ] in
      let sealed = List.map (fun (traces, _) -> seal traces) launches in
      List.for_all
        (fun policy ->
          List.for_all
            (fun (ring, window) ->
              replay_sm machine ~policy ~ring ~window sealed
              = replay_ref machine ~policy ~ring ~window launches)
            [ (false, None); (true, None); (false, Some 256); (true, Some 256) ])
        (None :: List.map Option.some Policy.all))

(* Sealing keeps the sector lists and drops the lanes, so the sealed and
   the unsealed copies of the same launches replay alike: equal cycles,
   window rows, stats and events, with and without translation. *)
let prop_sealed_replays_like_unsealed =
  QCheck.Test.make ~name:"sealed traces replay like unsealed ones" ~count:50
    QCheck.(
      list_of_size (Gen.int_range 1 60) (pair (int_bound 9) (int_bound 0xFFFF)))
    (fun ops ->
      let unsealed =
        [ fst (traces_of_ops ops); fst (traces_of_ops (List.rev ops)) ]
      in
      let sealed = List.map seal unsealed in
      List.for_all
        (fun (policy, ring, window) ->
          replay_sm machines.(0) ~policy ~ring ~window sealed
          = replay_sm machines.(0) ~policy ~ring ~window unsealed)
        [ (None, false, None); (None, true, Some 256);
          (Some Policy.Coalesce, true, None) ])

(* --- exhaustive replay check ------------------------------------------ *)

(* Every program up to [exhaustive_k] instructions over an eight-symbol
   alphabet — a load and a store to each of three sectors, one compute,
   one ctrl — as one warp, or split between two, replayed twice (cold,
   then with warm L2 and L2 TLB) on one SM, against the reference model.
   Sectors 0 and 1 share a line and are each other's DRAM pair; the third
   sits at 0x40000, in another line of the same L1 and L2 set and in
   another span of the page table: a base page beside the first two
   under [Flat_4k], a large page of its own under [Flat_2m] and
   [Coalesce]. The machines are every combination of 1-2-way L1 and L2
   and, with two warps, one or two resident warps; each runs with no vm
   and under every policy, so 1-way caches and the 1-way L1 TLB evict
   on every switch between the lines. *)
let exhaustive_k = 4

let exhaustive_addrs = [| 0; 32; 0x40000 |]

let exhaustive_launch heap programs =
  let logged = Array.make (Array.length programs) [] in
  let traces =
    Array.mapi
      (fun warp_id program ->
        let ctx = Warp_ctx.create ~heap ~warp_id ~lanes:[| warp_id * 32 |] () in
        List.iter
          (fun sym ->
            let addrs = [| exhaustive_addrs.(sym mod 3) |] in
            if sym < 3 then begin
              logged.(warp_id) <- addrs :: logged.(warp_id);
              ignore (Warp_ctx.load ctx ~label:Label.Body addrs)
            end
            else if sym < 6 then begin
              logged.(warp_id) <- addrs :: logged.(warp_id);
              Warp_ctx.store ctx ~label:Label.Body addrs [| sym |]
            end
            else if sym = 6 then Warp_ctx.compute ctx ~label:Label.Body
            else Warp_ctx.ctrl ctx ~label:Label.Body)
          program;
        Warp_ctx.trace ctx)
      programs
  in
  (traces, Array.map List.rev logged)

(* Every list of [n] symbols in [0, 8). *)
let rec programs_of_length n =
  if n = 0 then [ [] ]
  else
    List.concat_map
      (fun rest -> List.init 8 (fun sym -> sym :: rest))
      (programs_of_length (n - 1))

let test_exhaustive_replay () =
  let heap = Page_store.create () in
  let one_warp =
    List.concat_map
      (fun n -> List.map (fun p -> [| p |]) (programs_of_length n))
      (List.init exhaustive_k (( + ) 1))
  in
  let two_warps =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun n0 ->
            List.concat_map
              (fun p0 ->
                List.map (fun p1 -> [| p0; p1 |]) (programs_of_length (n - n0)))
              (programs_of_length n0))
          (List.init (n - 1) (( + ) 1)))
      (List.init (exhaustive_k - 1) (( + ) 2))
  in
  let caches = [ (1, 1); (1, 2); (2, 1); (2, 2) ] in
  let machines warps =
    List.concat_map
      (fun (l1_ways, l2_ways) ->
        List.map
          (fun resident ->
            ( tiny_cfg ~n_sms:1 ~warps:resident ~l1_ways ~l2_ways (),
              tiny_vm_config ))
          (if warps = 1 then [ 1 ] else [ 1; 2 ]))
      caches
  in
  let policies = None :: List.map Option.some Policy.all in
  let programs = one_warp @ two_warps in
  (* sum 8^n for n = 1..4, and sum (n - 1) 8^n for n = 2..4. *)
  check Alcotest.int "programs enumerated" (4680 + 13376) (List.length programs);
  List.iter
    (fun programs ->
      let launch = exhaustive_launch heap programs in
      let sealed = seal (fst launch) in
      List.iter
        (fun machine ->
          List.iter
            (fun policy ->
              let replay f launches =
                f machine ~policy ~ring:false ~window:None launches
              in
              if
                replay replay_sm [ sealed; sealed ]
                <> replay replay_ref [ launch; launch ]
              then
                Alcotest.failf "Sm.run and the reference differ on %s"
                  (String.concat " | "
                     (Array.to_list
                        (Array.map
                           (fun p -> String.concat " " (List.map string_of_int p))
                           programs))))
            policies)
        (machines (Array.length programs)))
    programs

(* --- tag bits never move the measurement ------------------------------- *)

(* Loads and stores over a heap window that crosses [test_table]'s first
   arena, the unmapped hole behind it and the first promoted span, each
   behind a random lane mask. Op [(store, r, mask)] addresses lane [t]
   at a stride of [1 + r mod 37] words from [r] words in; [tag k t] is
   the tag lane [t]'s address of op [k] carries. Returns the device's
   stats and every loaded word. *)
let tagged_window_run ~vm ~n_threads ops ~tag =
  let heap = Page_store.create () in
  let device = Device.create ~heap () in
  Device.set_vm device vm;
  let loaded = ref [] in
  let kernel ctx =
    List.iteri
      (fun k (store, r, mask) ->
        let pred =
          Array.map (fun t -> (mask lsr (t land 31)) land 1 = 1) (Warp_ctx.tids ctx)
        in
        Warp_ctx.if_ ctx ~label:Label.Body ~pred
          (fun sub _ ->
            let tids = Warp_ctx.tids sub in
            let addrs =
              Array.map
                (fun t ->
                  let word = (r + (t * (1 + (r mod 37)))) mod 0x2800 in
                  Repro_mem.Vaddr.with_tag (0x2E000 + (8 * word)) ~tag:(tag k t))
                tids
            in
            if store then Warp_ctx.store sub ~label:Label.Body addrs tids
            else loaded := Warp_ctx.load sub ~label:Label.Body addrs :: !loaded)
          None)
      ops
  in
  Device.launch device ~n_threads kernel;
  Device.launch device ~n_threads kernel;
  (Stats.to_raw (Device.stats device), !loaded)

(* The third metamorphic property: with no vm and under a [Coalesce] vm,
   the same accesses with a random tag on every lane's address give
   bit-equal cycles and counters (and load the same words) as with
   canonical addresses, so the hardware-MMU TypePointer's tags are free
   in the timing model. *)
let prop_tags_timing_invisible =
  QCheck.Test.make ~name:"tag bits never change cycles or stats" ~count:50
    QCheck.(
      triple (int_bound ((32 * 6) - 1)) int
        (list_of_size (Gen.int_range 1 24)
           (triple bool (int_bound 0xFFFF) (int_bound 0xFFFFFFFF))))
    (fun (n, seed, ops) ->
      let n_threads = n + 1 in
      let tag k t =
        Hashtbl.hash (seed, k, t) mod (Repro_mem.Vaddr.max_tag + 1)
      in
      List.for_all
        (fun vm ->
          let canonical =
            tagged_window_run ~vm:(vm ()) ~n_threads ops ~tag:(fun _ _ -> 0)
          in
          let tagged = tagged_window_run ~vm:(vm ()) ~n_threads ops ~tag in
          Marshal.to_string canonical [ Marshal.No_sharing ]
          = Marshal.to_string tagged [ Marshal.No_sharing ])
        [ (fun () -> None); (fun () -> Some (test_vm Policy.Coalesce)) ])

let test_set_vm_checks_n_sms () =
  (* The replay loop indexes the vm's per-SM L1 TLBs by SM unchecked. *)
  let table = test_table Policy.Flat_4k in
  List.iter
    (fun n_sms ->
      let vm = Vm.create ~n_sms ~table () in
      check Alcotest.bool
        (Printf.sprintf "a %d-SM vm on a %d-SM path is refused" n_sms
           cfg.Config.n_sms)
        true
        (match Mem_path.set_vm (Mem_path.create cfg) (Some vm) with
         | () -> false
         | exception Invalid_argument _ -> true))
    [ cfg.Config.n_sms - 1; cfg.Config.n_sms + 1 ]

let test_ring_drop_oldest () =
  let module R = Repro_util.Event_ring in
  let r = R.create ~capacity:4 in
  R.begin_launch r ~base:0.;
  for i = 0 to 5 do
    R.record r ~kind:Telemetry.kind_stall ~track:0 ~a:i ~b:i
      ~ts:(float_of_int i) ~dur:1.
  done;
  check Alcotest.int "len capped at capacity" 4 (R.length r);
  check Alcotest.int "two dropped" 2 (R.take_dropped r);
  check Alcotest.int "take_dropped resets" 0 (R.take_dropped r);
  check Alcotest.int "all_dropped persists" 2 (R.all_dropped r);
  let evs = R.events r in
  check Alcotest.int "four buffered" 4 (Array.length evs);
  (* The two oldest (a = 0, 1) were overwritten; the survivors come out
     oldest-first. *)
  Array.iteri
    (fun j (e : R.event) ->
      check Alcotest.int "survivor payload" (j + 2) e.arg_a;
      check Alcotest.bool "survivor timestamp" true (e.ts = float_of_int (j + 2)))
    evs;
  check Alcotest.bool "max_end covers last event" true (R.max_end r = 6.)

let suite =
  [
    Alcotest.test_case "label indexing" `Quick test_label_indexing;
    Alcotest.test_case "instr classes" `Quick test_instr_classes;
    Alcotest.test_case "coalesce basic" `Quick test_coalesce_basic;
    Alcotest.test_case "cache hit after miss" `Quick test_cache_hit_after_miss;
    Alcotest.test_case "cache sector granularity" `Quick test_cache_sector_granularity;
    Alcotest.test_case "cache lru eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache flush" `Quick test_cache_flush;
    Alcotest.test_case "cache geometry validation" `Quick test_cache_geometry_validation;
    Alcotest.test_case "mem path latencies" `Quick test_mem_path_latencies;
    Alcotest.test_case "mem path private L1s" `Quick test_mem_path_l1_private_per_sm;
    Alcotest.test_case "mem path bandwidth" `Quick test_mem_path_bandwidth_serializes;
    Alcotest.test_case "kernel boundary semantics" `Quick
      test_mem_path_begin_kernel_flushes_l1_not_l2;
    Alcotest.test_case "warp ctx load/store" `Quick test_warp_ctx_load_store;
    Alcotest.test_case "warp ctx strips tags" `Quick test_warp_ctx_strips_tags;
    Alcotest.test_case "warp ctx diverge" `Quick test_warp_ctx_diverge;
    Alcotest.test_case "warp ctx if_" `Quick test_warp_ctx_if;
    Alcotest.test_case "warp ctx width mismatch" `Quick test_warp_ctx_width_mismatch;
    Alcotest.test_case "device runs kernel" `Quick test_device_runs_kernel;
    Alcotest.test_case "device partial warp" `Quick test_device_partial_warp;
    Alcotest.test_case "device reset" `Quick test_device_reset;
    Alcotest.test_case "device kernel timeline" `Quick test_device_kernel_timeline;
    Alcotest.test_case "stall attribution" `Quick test_sm_blocking_latency_attribution;
    Alcotest.test_case "latency hiding" `Quick test_more_warps_hide_latency;
    Alcotest.test_case "trace SoA roundtrip" `Quick test_trace_soa_roundtrip;
    Alcotest.test_case "trace emit records opcodes" `Quick test_trace_emit_opcodes;
    Alcotest.test_case "sealed trace holds sectors, not lanes" `Quick
      test_sealed_trace_holds_sectors;
    Alcotest.test_case "replay allocates nothing per instruction" `Quick
      test_replay_zero_allocation;
    Alcotest.test_case "fused replay allocates nothing per instruction" `Quick
      test_fused_replay_zero_allocation;
    Alcotest.test_case "set_vm refuses a vm of another SM count" `Quick
      test_set_vm_checks_n_sms;
    Alcotest.test_case "tracer-on replay allocates nothing per instruction"
      `Quick test_replay_zero_allocation_traced;
    Alcotest.test_case "streamed replay allocates nothing per instruction"
      `Quick test_streamed_replay_zero_allocation;
    Alcotest.test_case "kernel raising in a helper scope" `Quick
      test_device_raise_in_scope;
    Alcotest.test_case "set_vm in a helper scope" `Quick test_device_set_vm_in_scope;
    Alcotest.test_case "helper only above the resident slots" `Quick
      test_device_helper_threshold;
    Alcotest.test_case "ring drop-oldest spill" `Quick test_ring_drop_oldest;
    Alcotest.test_case "warp-uniform load allocates only its values" `Quick
      test_uniform_load_allocation;
    QCheck_alcotest.to_alcotest prop_coalesce_bounds;
    QCheck_alcotest.to_alcotest prop_coalesce_scratch_equiv;
    QCheck_alcotest.to_alcotest prop_coalesce_unsafe_equiv;
    QCheck_alcotest.to_alcotest prop_coalesce_lane_permutation;
    QCheck_alcotest.to_alcotest prop_run_matches_reference;
    QCheck_alcotest.to_alcotest prop_sealed_replays_like_unsealed;
    Alcotest.test_case "exhaustive replay against the reference" `Slow
      test_exhaustive_replay;
    QCheck_alcotest.to_alcotest prop_sector_arena_matches_naive;
    QCheck_alcotest.to_alcotest prop_uniform_loads_invisible;
    QCheck_alcotest.to_alcotest prop_tags_timing_invisible;
    QCheck_alcotest.to_alcotest prop_cache_hits_bounded;
    QCheck_alcotest.to_alcotest prop_cache_lru_inclusion;
    QCheck_alcotest.to_alcotest prop_cache_matches_reference;
    QCheck_alcotest.to_alcotest prop_tlb_matches_reference;
  ]
