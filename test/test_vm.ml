(* Tests for the address-translation subsystem: page-size policies, the
   span-compressed page table, TLB replacement, the assembled lookup
   model, and the fold-consistency of the tlb.* counters under windowed
   sampling. *)

module Policy = Repro_vm.Policy
module Page_table = Repro_vm.Page_table
module Tlb = Repro_vm.Tlb
module Vm = Repro_vm.Vm
module Vaddr = Repro_mem.Vaddr
module W = Repro_workloads
module T = Repro_core.Technique
module Stats = Repro_gpu.Stats
module O = Repro_obs

let check = Alcotest.check

let kb = 1024
let mb = 1024 * 1024

(* --- policies ----------------------------------------------------------- *)

let test_policy_names () =
  List.iter
    (fun p ->
      match Policy.of_string (Policy.name p) with
      | Ok q -> check Alcotest.bool (Policy.name p) true (Policy.equal p q)
      | Error msg -> Alcotest.fail msg)
    Policy.all;
  (match Policy.parse "none" with
   | Ok None -> ()
   | _ -> Alcotest.fail "none should parse to no policy");
  (match Policy.parse "OFF" with
   | Ok None -> ()
   | _ -> Alcotest.fail "off is a case-insensitive alias of none");
  (match Policy.parse "mosaic" with
   | Ok (Some Policy.Coalesce) -> ()
   | _ -> Alcotest.fail "mosaic should alias coalesce");
  (match Policy.parse "4k" with
   | Ok (Some Policy.Flat_4k) -> ()
   | _ -> Alcotest.fail "4k should alias flat-4k");
  check Alcotest.bool "bogus rejected" true
    (Result.is_error (Policy.parse "huge"));
  check Alcotest.int "cli names = none + all" (1 + List.length Policy.all)
    (List.length Policy.cli_names)

(* --- page table --------------------------------------------------------- *)

(* Two disjoint arenas, as [Address_space.arenas] would report them. *)
let arenas = [ (0, 256 * kb); (16 * mb, 64 * kb) ]

let in_arenas addr =
  (addr >= 0 && addr < 256 * kb)
  || (addr >= 16 * mb && addr < (16 * mb) + (64 * kb))

let prop_translate_roundtrip =
  QCheck.Test.make ~name:"page table: mapped iff inside an arena" ~count:500
    QCheck.(int_bound ((17 * mb) - 1))
    (fun addr ->
      let t = Page_table.build ~policy:Policy.Flat_4k ~arenas ~promoted:[] () in
      match Page_table.translate t ~addr with
      | Some page ->
        in_arenas addr
        && page.Page_table.page_bytes = Page_table.small_page_bytes
        && page.Page_table.levels = Page_table.small_levels
        && page.Page_table.owner = -1
        && page.Page_table.phys_addr >= 0
      | None -> not (in_arenas addr))

let prop_translate_ignores_tag =
  QCheck.Test.make ~name:"page table: tagged address translates like its \
                          canonical form" ~count:300
    QCheck.(pair (int_bound ((256 * kb) - 1)) (int_bound Vaddr.max_tag))
    (fun (addr, tag) ->
      QCheck.assume (tag > 0);
      let t = Page_table.build ~policy:Policy.Flat_2m ~arenas ~promoted:[] () in
      Page_table.translate t ~addr:(Vaddr.with_tag addr ~tag)
      = Page_table.translate t ~addr)

let prop_phys_offsets_within_page =
  (* Physical placement is per-page linear: two addresses on the same
     page keep their distance. *)
  QCheck.Test.make ~name:"page table: same-page physical offsets are linear"
    ~count:300
    QCheck.(pair (int_bound ((256 * kb) - 1)) (int_bound 4095))
    (fun (addr, delta) ->
      let t = Page_table.build ~policy:Policy.Flat_4k ~arenas ~promoted:[] () in
      let page_base = addr - (addr mod Page_table.small_page_bytes) in
      let a = page_base + (delta mod Page_table.small_page_bytes) in
      match
        (Page_table.translate t ~addr:page_base, Page_table.translate t ~addr:a)
      with
      | Some p0, Some p1 ->
        p1.Page_table.phys_addr - p0.Page_table.phys_addr = a - page_base
      | _ -> false)

(* The span hint only skips the binary search: every hint, right or
   wrong, gives the same page key, on a table with base-page, large-page
   and unmapped stretches. *)
let prop_page_key_ignores_hint =
  QCheck.Test.make ~name:"page table: page_key ignores its hint" ~count:300
    QCheck.(pair (int_bound ((2 * mb / 32) - 1)) (int_bound 8))
    (fun (sector, hint) ->
      let t =
        Page_table.build ~policy:Policy.Coalesce
          ~arenas:[ (0, mb); (mb + (256 * kb), 256 * kb) ]
          ~promoted:[ (0, 256 * kb, 3); (512 * kb, 640 * kb, 7) ]
          ()
      in
      let sbase = Page_table.Raw.sbase t and slimit = Page_table.Raw.slimit t in
      let expected = ref (-1) in
      Array.iteri
        (fun i b ->
          if sector >= b && sector < slimit.(i) then
            expected :=
              (i lsl Page_table.span_key_shift)
              lor ((sector - b) lsr (Page_table.Raw.shift t).(i)))
        sbase;
      Page_table.page_key t ~hint sector = !expected)

let translate_exn t addr =
  match Page_table.translate t ~addr with
  | Some page -> page
  | None -> Alcotest.failf "address 0x%x unexpectedly unmapped" addr

let test_flat_2m () =
  let t = Page_table.build ~policy:Policy.Flat_2m ~arenas ~promoted:[] () in
  let page = translate_exn t (100 * kb) in
  check Alcotest.int "large page" Page_table.large_page_bytes
    page.Page_table.page_bytes;
  check Alcotest.int "shallower walk" Page_table.large_levels
    page.Page_table.levels;
  check Alcotest.int "no owner without promotion" (-1) page.Page_table.owner

let test_coalesce_promotion () =
  let arenas = [ (0, mb) ] in
  let promoted =
    [
      (* Two adjacent type-3 spans: must merge into one 512K large span. *)
      (0, 256 * kb, 3);
      (256 * kb, 512 * kb, 3);
      (* A 128K type-7 span: promoted on its own. *)
      (512 * kb, 640 * kb, 7);
      (* 16K of type 9: below the 64K promotion threshold. *)
      (640 * kb, 656 * kb, 9);
    ]
  in
  let t = Page_table.build ~policy:Policy.Coalesce ~arenas ~promoted () in
  check Alcotest.int "two large spans" 2 (Page_table.large_spans t);
  let a = translate_exn t (4 * kb) and b = translate_exn t (500 * kb) in
  check Alcotest.int "merged span, one owner" 3 a.Page_table.owner;
  check Alcotest.int "same span across the merge point" a.Page_table.span
    b.Page_table.span;
  check Alcotest.int "promoted to large pages" Page_table.large_page_bytes
    a.Page_table.page_bytes;
  let c = translate_exn t ((512 * kb) + 10) in
  check Alcotest.int "second owner" 7 c.Page_table.owner;
  let small = translate_exn t ((640 * kb) + 10) in
  check Alcotest.int "below threshold stays small"
    Page_table.small_page_bytes small.Page_table.page_bytes;
  check Alcotest.int "unpromoted spans have no owner" (-1)
    small.Page_table.owner;
  let tail = translate_exn t (900 * kb) in
  check Alcotest.int "unreported arena tail stays small"
    Page_table.small_page_bytes tail.Page_table.page_bytes

(* --- TLB ----------------------------------------------------------------- *)

let test_tlb_lru_eviction () =
  (* One set, two ways: the LRU way (and only it) is evicted on fill. *)
  let t = Tlb.create ~sets:1 ~ways:2 in
  check Alcotest.int "entries" 2 (Tlb.entries t);
  check Alcotest.bool "cold miss 0" false (Tlb.access t ~key:0);
  check Alcotest.bool "cold miss 1" false (Tlb.access t ~key:1);
  check Alcotest.bool "hit 0 refreshes it" true (Tlb.access t ~key:0);
  (* 1 is now LRU, so filling 2 must evict it. *)
  check Alcotest.bool "fill 2" false (Tlb.access t ~key:2);
  check Alcotest.bool "0 survived" true (Tlb.probe t ~key:0);
  check Alcotest.bool "1 evicted" false (Tlb.probe t ~key:1);
  check Alcotest.bool "2 resident" true (Tlb.probe t ~key:2)

let test_tlb_probe_is_passive () =
  let t = Tlb.create ~sets:1 ~ways:2 in
  ignore (Tlb.access t ~key:0);
  ignore (Tlb.access t ~key:1);
  (* A probe hit must not refresh LRU state: 0 stays the LRU way. *)
  check Alcotest.bool "probe hit" true (Tlb.probe t ~key:0);
  ignore (Tlb.access t ~key:2);
  check Alcotest.bool "0 evicted despite the probe" false (Tlb.probe t ~key:0);
  check Alcotest.bool "1 survived" true (Tlb.probe t ~key:1);
  (* Flush empties every way. *)
  Tlb.flush t;
  check Alcotest.bool "flushed" false (Tlb.probe t ~key:1)

(* --- assembled model ----------------------------------------------------- *)

let vm_fixture () =
  let table =
    Page_table.build ~policy:Policy.Flat_4k ~arenas:[ (0, mb) ] ~promoted:[] ()
  in
  Vm.create ~n_sms:2 ~table ()

let test_vm_lookup_codes () =
  let vm = vm_fixture () in
  let walk = Vm.walk_base + Page_table.small_levels in
  check Alcotest.int "cold lookup walks" walk (Vm.lookup vm ~sm:0 ~sector:0);
  check Alcotest.int "repeat hits L1" Vm.hit_l1 (Vm.lookup vm ~sm:0 ~sector:0);
  check Alcotest.int "other SM hits shared L2" Vm.hit_l2
    (Vm.lookup vm ~sm:1 ~sector:0);
  Vm.flush_l1s vm;
  check Alcotest.int "kernel boundary keeps L2" Vm.hit_l2
    (Vm.lookup vm ~sm:0 ~sector:0);
  Vm.flush vm;
  check Alcotest.int "full flush walks again" walk
    (Vm.lookup vm ~sm:0 ~sector:0);
  (* An unmapped sector walks the full radix depth and is never cached. *)
  let far = (64 * mb) / Vaddr.sector_bytes in
  let unmapped = Vm.walk_base + Page_table.max_levels in
  check Alcotest.int "unmapped walks" unmapped (Vm.lookup vm ~sm:0 ~sector:far);
  check Alcotest.int "unmapped never caches" unmapped
    (Vm.lookup vm ~sm:0 ~sector:far)

let test_vm_latencies () =
  let vm = vm_fixture () in
  let cfg = Vm.config vm in
  check (Alcotest.float 0.0) "L1 hit is free" 0.
    (Vm.latency_of_code vm Vm.hit_l1);
  check (Alcotest.float 0.0) "L2 hit" cfg.Vm.l2_latency
    (Vm.latency_of_code vm Vm.hit_l2);
  check (Alcotest.float 0.0) "4-level walk"
    (cfg.Vm.l2_latency +. (4. *. cfg.Vm.walk_latency_per_level))
    (Vm.latency_of_code vm (Vm.walk_base + 4))

(* --- sanitizer translation checks ---------------------------------------- *)

let test_checker_vm_detections () =
  let module Checker = Repro_san.Checker in
  let module Shadow_heap = Repro_san.Shadow_heap in
  let module Violation = Repro_san.Violation in
  let c = Checker.create ~tags_expected:false () in
  let sh = Checker.shadow c in
  Shadow_heap.add_heap_range sh ~base:0x1000 ~size:0x40000;
  Shadow_heap.register sh ~base:0x1100 ~size:64 ~type_id:1;
  let access addrs =
    Checker.check_access c ~warp:0 ~tids:[| 0 |] ~access:Checker.Other
      ~what:"test" ~width:8 ~addrs
  in
  access [| 0x1100 |];
  check Alcotest.int "clean without a table" 0 (Checker.total c);
  (* A table that does not cover the heap range: every access is to an
     unmapped page. *)
  let elsewhere =
    Page_table.build ~policy:Policy.Flat_4k ~arenas:[ (mb, 4096) ]
      ~promoted:[] ()
  in
  Checker.set_page_table c (Some elsewhere);
  access [| 0x1100 |];
  check Alcotest.int "vm unmapped" 1 (Checker.count c Violation.Vm_unmapped);
  (* A large page promoted for the wrong owner type. *)
  let wrong_owner =
    Page_table.build ~policy:Policy.Coalesce ~arenas:[ (0x1000, 0x40000) ]
      ~promoted:[ (0x1000, 0x41000, 7) ] ()
  in
  Checker.set_page_table c (Some wrong_owner);
  access [| 0x1100 |];
  check Alcotest.int "vm owner mismatch" 1
    (Checker.count c Violation.Vm_owner_mismatch);
  (* The faithful table is clean. *)
  let right =
    Page_table.build ~policy:Policy.Coalesce ~arenas:[ (0x1000, 0x40000) ]
      ~promoted:[ (0x1000, 0x41000, 1) ] ()
  in
  Checker.set_page_table c (Some right);
  access [| 0x1100 |];
  check Alcotest.int "faithful table stays clean" 2 (Checker.total c)

(* --- windowed tlb.* counters fold to the totals -------------------------- *)

let test_tlb_window_fold () =
  let w =
    match W.Registry.find "TRAF" with
    | Some w -> w
    | None -> Alcotest.fail "TRAF workload missing"
  in
  let p =
    {
      (W.Workload.default_params T.Shared_oa) with
      W.Workload.scale = 0.03;
      pages = Some Policy.Coalesce;
      telemetry =
        Some
          { Repro_gpu.Telemetry.window = Some 512; trace = false;
            trace_capacity = Repro_gpu.Telemetry.default_capacity };
    }
  in
  let r = W.Harness.run w p in
  check Alcotest.bool "translation actually ran" true
    (Stats.tlb_lookups r.W.Harness.stats > 0);
  let sum extract =
    List.fold_left
      (fun acc windows ->
        Array.fold_left (fun acc s -> acc + extract s) acc windows)
      0 r.W.Harness.kernel_windows
  in
  let sumf extract =
    List.fold_left
      (fun acc windows ->
        Array.fold_left (fun acc s -> acc +. extract s) acc windows)
      0. r.W.Harness.kernel_windows
  in
  check Alcotest.int "l1 hits fold" (Stats.tlb_l1_hits r.W.Harness.stats)
    (sum Stats.tlb_l1_hits);
  check Alcotest.int "l2 hits fold" (Stats.tlb_l2_hits r.W.Harness.stats)
    (sum Stats.tlb_l2_hits);
  check Alcotest.int "walks fold" (Stats.tlb_walks r.W.Harness.stats)
    (sum Stats.tlb_walks);
  check (Alcotest.float 1e-6) "walk cycles fold"
    (Stats.tlb_walk_cycles r.W.Harness.stats)
    (sumf Stats.tlb_walk_cycles);
  (* And the timeline's structural validator agrees, tlb rows included. *)
  let window =
    match r.W.Harness.window with
    | Some w -> w
    | None -> Alcotest.fail "sampling was on but run has no window"
  in
  let tl =
    O.Timeline.make ~workload:r.W.Harness.workload
      ~technique:(T.name r.W.Harness.technique)
      ~window ~kernel_windows:r.W.Harness.kernel_windows
  in
  let profile =
    O.Profile.make ~workload:r.W.Harness.workload
      ~technique:(T.name r.W.Harness.technique)
      ~kernel_stats:r.W.Harness.kernel_stats ~total:r.W.Harness.stats
  in
  match O.Timeline.consistent tl ~profile with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let suite =
  [
    Alcotest.test_case "policy names and aliases" `Quick test_policy_names;
    QCheck_alcotest.to_alcotest prop_translate_roundtrip;
    QCheck_alcotest.to_alcotest prop_translate_ignores_tag;
    QCheck_alcotest.to_alcotest prop_phys_offsets_within_page;
    QCheck_alcotest.to_alcotest prop_page_key_ignores_hint;
    Alcotest.test_case "flat-2m backs arenas with large pages" `Quick
      test_flat_2m;
    Alcotest.test_case "coalesce merges and promotes contiguity spans" `Quick
      test_coalesce_promotion;
    Alcotest.test_case "tlb LRU eviction order" `Quick test_tlb_lru_eviction;
    Alcotest.test_case "tlb probe leaves LRU state alone" `Quick
      test_tlb_probe_is_passive;
    Alcotest.test_case "vm lookup codes" `Quick test_vm_lookup_codes;
    Alcotest.test_case "vm latency schedule" `Quick test_vm_latencies;
    Alcotest.test_case "sanitizer vm detections" `Quick
      test_checker_vm_detections;
    Alcotest.test_case "tlb.* window samples fold to totals" `Quick
      test_tlb_window_fold;
  ]
