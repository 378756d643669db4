(* Tests for the paper's contribution: allocators, range table, pointer
   tagging, and dispatch under every technique. *)

module T = Repro_core.Technique
module Object_model = Repro_core.Object_model
module Vtable_space = Repro_core.Vtable_space
module Registry = Repro_core.Registry
module Region = Repro_core.Region
module Allocator = Repro_core.Allocator
module Cuda_alloc = Repro_core.Cuda_alloc
module Shared_oa = Repro_core.Shared_oa
module Dyna_soa = Repro_core.Dyna_soa
module Alloc_family = Repro_core.Alloc_family
module Range_table = Repro_core.Range_table
module Garray = Repro_core.Garray
module Runtime = Repro_core.Runtime
module Env = Repro_core.Env
module Vaddr = Repro_mem.Vaddr
module Page_store = Repro_mem.Page_store
module Address_space = Repro_mem.Address_space
module Label = Repro_gpu.Label
module Trace = Repro_gpu.Trace
module Instr = Repro_gpu.Instr
module Warp_ctx = Repro_gpu.Warp_ctx

let check = Alcotest.check

(* --- technique -------------------------------------------------------- *)

let test_technique_parsing () =
  List.iter
    (fun t ->
      match T.of_string (T.name t) with
      | Ok t' -> check Alcotest.bool "roundtrip" true (T.equal t t')
      | Error e -> Alcotest.fail e)
    (T.all_paper @ [ T.type_pointer_hw; T.type_pointer_on_cuda ]);
  check Alcotest.bool "unknown rejected" true (Result.is_error (T.of_string "nope"))

let test_technique_predicates () =
  check Alcotest.bool "shared oa" true (T.uses_shared_oa T.Coal);
  check Alcotest.bool "cuda not" false (T.uses_shared_oa T.Cuda);
  check Alcotest.bool "tp on cuda alloc" false (T.uses_shared_oa T.type_pointer_on_cuda);
  check Alcotest.bool "tp tags" true (T.tags_pointers T.type_pointer);
  check Alcotest.bool "prototype strips" true (T.strips_in_software T.type_pointer);
  check Alcotest.bool "hw mmu free" false (T.strips_in_software T.type_pointer_hw)

(* --- object model ----------------------------------------------------- *)

let test_object_model_headers () =
  let hdr t = Object_model.header_words (Object_model.create t) in
  check Alcotest.int "cuda" 1 (hdr T.Cuda);
  check Alcotest.int "concord" 1 (hdr T.Concord);
  check Alcotest.int "shared oa" 2 (hdr T.Shared_oa);
  check Alcotest.int "coal" 2 (hdr T.Coal);
  check Alcotest.int "tp on shared" 2 (hdr T.type_pointer);
  check Alcotest.int "tp on cuda" 1 (hdr T.type_pointer_on_cuda)

let test_object_model_field_addressing () =
  let om = Object_model.create T.Shared_oa in
  check Alcotest.int "field 0 after header" (1000 + 16)
    (Object_model.field_addr om ~ptr:1000 ~field:0);
  check Alcotest.int "4-byte slots" (1000 + 16 + 12)
    (Object_model.field_addr om ~ptr:1000 ~field:3);
  check Alcotest.int "tag stripped" (1000 + 16)
    (Object_model.field_addr om ~ptr:(Vaddr.with_tag 1000 ~tag:9) ~field:0);
  check Alcotest.int "object bytes" (16 + 12) (Object_model.object_bytes om ~field_words:3)

let test_object_model_sign_extension () =
  let om = Object_model.create T.Cuda in
  let heap = Page_store.create () in
  Object_model.field_store_host om heap ~ptr:4096 ~field:1 (-12345);
  check Alcotest.int "negative 32-bit roundtrip" (-12345)
    (Object_model.field_load_host om heap ~ptr:4096 ~field:1)

let test_object_model_strip_charge () =
  let heap = Page_store.create () in
  let count_strips technique =
    let om = Object_model.create technique in
    let ctx = Warp_ctx.create ~heap ~warp_id:0 ~lanes:[| 0 |] () in
    ignore (Object_model.field_load om ctx ~objs:[| 4096 |] ~field:0);
    let trace = Warp_ctx.trace ctx in
    let strips = ref 0 in
    for i = 0 to Trace.length trace - 1 do
      if Trace.label_index trace i = Label.to_index Label.Tp_strip then
        incr strips
    done;
    !strips
  in
  check Alcotest.int "prototype masks" 1 (count_strips T.type_pointer);
  check Alcotest.int "hw mmu is free" 0 (count_strips T.type_pointer_hw);
  check Alcotest.int "cuda free" 0 (count_strips T.Cuda)

(* --- vtable space ------------------------------------------------------ *)

let make_space () =
  let heap = Page_store.create () in
  let space = Address_space.create () in
  (heap, space)

let test_vtable_space_tags () =
  let heap, space = make_space () in
  let vts = Vtable_space.create ~heap ~space () in
  let a = Vtable_space.alloc vts ~n_slots:3 in
  let b = Vtable_space.alloc vts ~n_slots:2 in
  check Alcotest.int "first at base" (Vtable_space.base vts) a;
  check Alcotest.int "byte-offset packing" (a + 24) b;
  check Alcotest.int "tag roundtrip a" a
    (Vtable_space.vtable_of_tag vts ~tag:(Vtable_space.tag_of_vtable vts ~vtable:a));
  check Alcotest.int "tag roundtrip b" b
    (Vtable_space.vtable_of_tag vts ~tag:(Vtable_space.tag_of_vtable vts ~vtable:b));
  check Alcotest.int "capacity is 4k pointers" 4096 (Vtable_space.capacity_slots vts);
  check Alcotest.int "slot addr" (a + 16) (Vtable_space.slot_addr ~vtable:a ~slot:2)

let test_vtable_space_exhaustion () =
  let heap, space = make_space () in
  let vts = Vtable_space.create ~heap ~space () in
  ignore (Vtable_space.alloc vts ~n_slots:4000);
  Alcotest.check_raises "arena full"
    (Failure "Vtable_space.alloc: 32KB vtable arena exhausted (fall back to COAL)")
    (fun () -> ignore (Vtable_space.alloc vts ~n_slots:200))

let test_vtable_space_padded_index () =
  let heap, space = make_space () in
  let vts =
    Vtable_space.create ~encoding:(Vtable_space.Padded_index { padded_slots = 8 })
      ~heap ~space ()
  in
  let a = Vtable_space.alloc vts ~n_slots:3 in
  let b = Vtable_space.alloc vts ~n_slots:8 in
  check Alcotest.int "padded stride" (a + 64) b;
  check Alcotest.int "index tags" 0 (Vtable_space.tag_of_vtable vts ~vtable:a);
  check Alcotest.int "index tag 1" 1 (Vtable_space.tag_of_vtable vts ~vtable:b);
  Alcotest.check_raises "oversized vtable"
    (Failure "Vtable_space.alloc: vtable larger than the padded size") (fun () ->
      ignore (Vtable_space.alloc vts ~n_slots:9))

(* --- registry ----------------------------------------------------------- *)

let test_registry_lifecycle () =
  let heap, space = make_space () in
  let reg = Registry.create ~heap in
  let impl_a = Registry.register_impl reg ~name:"a" (fun _ _ -> ()) in
  let impl_b = Registry.register_impl reg ~name:"b" (fun _ _ -> ()) in
  let base = Registry.define_type reg ~name:"Base" ~field_words:2 ~slots:[| impl_a |] () in
  let derived =
    Registry.define_type reg ~name:"Derived" ~field_words:2 ~parent:base
      ~slots:[| impl_b |] ()
  in
  check Alcotest.int "ids dense" 0 (Registry.type_id base);
  check Alcotest.int "ids dense 2" 1 (Registry.type_id derived);
  check Alcotest.bool "parent" true
    (match Registry.parent derived with Some p -> Registry.type_id p = 0 | None -> false);
  check Alcotest.int "total slots" 2 (Registry.total_vfunc_slots reg);
  let vts = Vtable_space.create ~heap ~space () in
  Registry.materialize reg ~vtspace:vts ~space;
  check Alcotest.bool "materialized" true (Registry.materialized reg);
  (* vtable memory holds the encoded impl ids. *)
  let slot0 = Page_store.load heap (Registry.gpu_vtable derived) in
  check Alcotest.int "encoded impl" (Registry.encode_impl_id impl_b) slot0;
  check Alcotest.int "decode" impl_b (Registry.decode_impl_id slot0);
  Alcotest.check_raises "decode zero"
    (Failure "Registry.decode_impl_id: uninitialized vtable slot") (fun () ->
      ignore (Registry.decode_impl_id 0));
  Alcotest.check_raises "define after materialize"
    (Failure "Registry.define_type: registry already materialized") (fun () ->
      ignore (Registry.define_type reg ~name:"Late" ~field_words:1 ~slots:[| impl_a |] ()))

(* --- region ------------------------------------------------------------- *)

let test_region_semantics () =
  let r = Region.make ~base:100 ~limit:200 ~type_id:3 in
  check Alcotest.bool "contains base" true (Region.contains r 100);
  check Alcotest.bool "excludes limit" false (Region.contains r 200);
  check Alcotest.int "bytes" 100 (Region.bytes r);
  let s = Region.make ~base:150 ~limit:250 ~type_id:4 in
  check Alcotest.bool "overlap" true (Region.overlap r s);
  let u = Region.make ~base:200 ~limit:250 ~type_id:4 in
  check Alcotest.bool "adjacent not overlapping" false (Region.overlap r u);
  Alcotest.check_raises "empty region"
    (Invalid_argument "Region.make: empty or inverted range") (fun () ->
      ignore (Region.make ~base:5 ~limit:5 ~type_id:0))

(* --- allocators ---------------------------------------------------------- *)

let dummy_registry () =
  let heap, space = make_space () in
  let reg = Registry.create ~heap in
  let impl = Registry.register_impl reg ~name:"noop" (fun _ _ -> ()) in
  let t1 = Registry.define_type reg ~name:"T1" ~field_words:2 ~slots:[| impl |] () in
  let t2 = Registry.define_type reg ~name:"T2" ~field_words:4 ~slots:[| impl |] () in
  (heap, space, reg, t1, t2)

let test_cuda_alloc_padding_and_scatter () =
  let _, space, _, t1, _ = dummy_registry () in
  let alloc = Cuda_alloc.create ~space () in
  let a = alloc.Allocator.alloc ~typ:t1 ~size_bytes:24 in
  let b = alloc.Allocator.alloc ~typ:t1 ~size_bytes:24 in
  check Alcotest.bool "128B aligned" true (a mod Cuda_alloc.granule_bytes = 0);
  check Alcotest.bool "scattered far apart" true (abs (b - a) > 1_000_000);
  let stats = alloc.Allocator.stats () in
  check Alcotest.int "objects" 2 stats.Allocator.objects;
  check Alcotest.int "used" 48 stats.Allocator.used_bytes;
  check Alcotest.int "reserved with padding" 256 stats.Allocator.reserved_bytes;
  check Alcotest.bool "no typed regions" true (alloc.Allocator.regions () = [])

let test_shared_oa_packs_by_type () =
  let _, space, _, t1, t2 = dummy_registry () in
  let alloc = Shared_oa.create ~chunk_objs:4 ~space () in
  let a1 = alloc.Allocator.alloc ~typ:t1 ~size_bytes:24 in
  let b1 = alloc.Allocator.alloc ~typ:t2 ~size_bytes:32 in
  let a2 = alloc.Allocator.alloc ~typ:t1 ~size_bytes:24 in
  let b2 = alloc.Allocator.alloc ~typ:t2 ~size_bytes:32 in
  check Alcotest.int "t1 packed back to back" (a1 + 24) a2;
  check Alcotest.int "t2 packed back to back" (b1 + 32) b2;
  check Alcotest.bool "types in different regions" true (abs (b1 - a1) >= 4096)

let test_shared_oa_doubling_and_merge () =
  let _, space, _, t1, _ = dummy_registry () in
  let alloc = Shared_oa.create ~chunk_objs:4 ~space () in
  (* Only one type allocates, so consecutive chunk reservations are
     adjacent and must merge into a single region despite doubling. *)
  for _ = 1 to 100 do
    ignore (alloc.Allocator.alloc ~typ:t1 ~size_bytes:24)
  done;
  (match alloc.Allocator.regions () with
   | [ r ] ->
     check Alcotest.int "single merged region type" (Registry.type_id t1) r.Region.type_id;
     check Alcotest.bool "covers all objects" true (Region.bytes r >= 100 * 24)
   | rs -> Alcotest.failf "expected 1 merged region, got %d" (List.length rs));
  let stats = alloc.Allocator.stats () in
  check Alcotest.int "used bytes" (100 * 24) stats.Allocator.used_bytes;
  let frag = Allocator.external_fragmentation stats in
  check Alcotest.bool "fragmentation in [0,1)" true (frag >= 0. && frag < 1.)

let test_shared_oa_interleaved_regions_sorted () =
  let _, space, _, t1, t2 = dummy_registry () in
  let alloc = Shared_oa.create ~chunk_objs:2 ~space () in
  for _ = 1 to 20 do
    ignore (alloc.Allocator.alloc ~typ:t1 ~size_bytes:24);
    ignore (alloc.Allocator.alloc ~typ:t2 ~size_bytes:32)
  done;
  let regions = alloc.Allocator.regions () in
  check Alcotest.bool "several regions" true (List.length regions > 2);
  let rec sorted_disjoint = function
    | a :: (b :: _ as rest) ->
      a.Region.limit <= b.Region.base && sorted_disjoint rest
    | _ -> true
  in
  check Alcotest.bool "sorted and disjoint" true (sorted_disjoint regions)

(* A type that reached [n] objects with chunks doubling from
   [chunk_objs] took at most that many grows — merging only shrinks the
   region list further. *)
let region_bound ~chunk_objs n =
  let rec go cap grows = if cap >= n then grows else go (2 * cap) (grows + 1) in
  go chunk_objs 1

let test_shared_oa_logarithmic_regions () =
  let _, space, _, t1, t2 = dummy_registry () in
  let alloc = Shared_oa.create ~chunk_objs:2 ~space () in
  let n = 200 in
  for _ = 1 to n do
    ignore (alloc.Allocator.alloc ~typ:t1 ~size_bytes:24);
    ignore (alloc.Allocator.alloc ~typ:t2 ~size_bytes:32)
  done;
  let regions = alloc.Allocator.regions () in
  let count ty =
    List.length
      (List.filter (fun r -> r.Region.type_id = Registry.type_id ty) regions)
  in
  let bound = region_bound ~chunk_objs:2 n in
  check Alcotest.bool "t1 region count logarithmic" true (count t1 <= bound);
  check Alcotest.bool "t2 region count logarithmic" true (count t2 <= bound)

let prop_shared_oa_regions_invariant =
  QCheck.Test.make
    ~name:"shared_oa regions sorted, disjoint, logarithmically many" ~count:50
    QCheck.(pair (int_range 1 150) (int_range 1 150))
    (fun (n1, n2) ->
      let _, space, _, t1, t2 = dummy_registry () in
      let alloc = Shared_oa.create ~chunk_objs:2 ~space () in
      for i = 0 to max n1 n2 - 1 do
        if i < n1 then ignore (alloc.Allocator.alloc ~typ:t1 ~size_bytes:24);
        if i < n2 then ignore (alloc.Allocator.alloc ~typ:t2 ~size_bytes:32)
      done;
      let regions = alloc.Allocator.regions () in
      let rec sorted_disjoint = function
        | a :: (b :: _ as rest) ->
          a.Region.limit <= b.Region.base && sorted_disjoint rest
        | _ -> true
      in
      let count ty =
        List.length
          (List.filter (fun r -> r.Region.type_id = Registry.type_id ty) regions)
      in
      sorted_disjoint regions
      && count t1 <= region_bound ~chunk_objs:2 n1
      && count t2 <= region_bound ~chunk_objs:2 n2)

let test_shared_oa_feeds_shadow () =
  let module Shadow_heap = Repro_san.Shadow_heap in
  let _, space, _, t1, _ = dummy_registry () in
  let shadow = Shadow_heap.create () in
  let alloc = Shared_oa.create ~shadow ~chunk_objs:4 ~space () in
  let a = alloc.Allocator.alloc ~typ:t1 ~size_bytes:24 in
  check Alcotest.int "allocation registered" 1 (Shadow_heap.n_allocations shadow);
  (match Shadow_heap.find shadow (a + 8) with
   | Some r ->
     check Alcotest.int "type recorded" (Registry.type_id t1)
       r.Shadow_heap.type_id
   | None -> Alcotest.fail "allocation missing from shadow map");
  (* The rest of the reserved chunk is heap, but no live object. *)
  match Shadow_heap.classify shadow ~addr:(a + 24) ~width:8 with
  | Shadow_heap.Heap_hole -> ()
  | _ -> Alcotest.fail "past the object should classify as a heap hole"

let test_alloc_cost_model () =
  check Alcotest.bool "80x init gap" true
    (Cuda_alloc.cycles_per_alloc /. Shared_oa.cycles_per_alloc = 80.)

let prop_shared_oa_address_type_consistency =
  QCheck.Test.make ~name:"SharedOA: every address maps back to its type" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 200) (int_bound 1))
    (fun choices ->
      let _, space, _, t1, t2 = dummy_registry () in
      let alloc = Shared_oa.create ~chunk_objs:4 ~space () in
      let placed =
        List.map
          (fun c ->
            let typ = if c = 0 then t1 else t2 in
            (alloc.Allocator.alloc ~typ ~size_bytes:24, Registry.type_id typ))
          choices
      in
      let regions = alloc.Allocator.regions () in
      List.for_all
        (fun (addr, type_id) ->
          match List.find_opt (fun r -> Region.contains r addr) regions with
          | Some r -> r.Region.type_id = type_id
          | None -> false)
        placed)

(* --- dyna soa ------------------------------------------------------------- *)

(* T1 under a 2-header-word layout: 16B of headers + two 4B fields = 24B
   canonical image. *)
let dyna_pair ?shadow ?block_slots () =
  let _, space, _, t1, t2 = dummy_registry () in
  let alloc, summary =
    Dyna_soa.create_with_summary ?shadow ?block_slots ~header_words:2 ~space ()
  in
  (alloc, summary, t1, t2)

let test_alloc_family_parsing () =
  List.iter
    (fun fam ->
      match Alloc_family.of_string (Alloc_family.name fam) with
      | Ok f -> check Alcotest.bool "roundtrip" true (Alloc_family.equal f fam)
      | Error e -> Alcotest.fail e)
    Alloc_family.all;
  check Alcotest.bool "alias" true (Alloc_family.of_string "DynaSOA" = Ok Alloc_family.Dyna_soa);
  check Alcotest.bool "unknown rejected" true
    (Result.is_error (Alloc_family.of_string "nope"));
  check Alcotest.bool "shard defaults to shared-oa" true
    (Alloc_family.equal (Alloc_family.default_for T.Shared_oa) Alloc_family.Shared_oa);
  check Alcotest.string "default column keeps the technique name" "CUDA"
    (Alloc_family.column_name T.Cuda Alloc_family.Cuda);
  check Alcotest.string "soa-over-cuda column" "DYNA"
    (Alloc_family.column_name T.Cuda Alloc_family.Dyna_soa);
  check Alcotest.string "other combination" "SHARD+DYNA"
    (Alloc_family.column_name T.Shared_oa Alloc_family.Dyna_soa)

let test_dyna_soa_addressing () =
  let alloc, _, t1, _ = dyna_pair () in
  let a = alloc.Allocator.alloc ~typ:t1 ~size_bytes:24 in
  let b = alloc.Allocator.alloc ~typ:t1 ~size_bytes:24 in
  check Alcotest.bool "8-aligned bases" true (a mod 8 = 0 && b mod 8 = 0);
  check Alcotest.int "neighbour slots 8B apart" (a + 8) b;
  let fa = Option.get alloc.Allocator.field_addr in
  check Alcotest.int "header word 0 storage is the base" a (fa ~obj:a ~off:0);
  (* The SoA payoff: the same field of consecutive slots is 4B apart... *)
  check Alcotest.int "SoA field stride" (fa ~obj:a ~off:16 + 4) (fa ~obj:b ~off:16);
  (* ...while one object's two fields are a whole element array apart. *)
  check Alcotest.int "fields striped per array"
    (fa ~obj:a ~off:16 + (4 * Dyna_soa.default_block_slots))
    (fa ~obj:a ~off:20);
  Alcotest.check_raises "ragged size rejected"
    (Invalid_argument
       "Dyna_soa.alloc: size 21B is not 2 header words plus 4B fields")
    (fun () -> ignore (alloc.Allocator.alloc ~typ:t1 ~size_bytes:21))

let test_dyna_free_reuse_and_double_free () =
  let alloc, summary, t1, _ = dyna_pair () in
  let ptrs = Array.init 10 (fun _ -> alloc.Allocator.alloc ~typ:t1 ~size_bytes:24) in
  let free = Option.get alloc.Allocator.free in
  free ~ptr:ptrs.(3);
  let s = summary () in
  check Alcotest.int "live after free" 9 s.Dyna_soa.live_slots;
  check Alcotest.int "bitmap agrees" 9 s.Dyna_soa.bitmap_live_slots;
  (* Lowest-clear-bit scan lands the next allocation in the freed slot. *)
  check Alcotest.int "freed slot reused" ptrs.(3)
    (alloc.Allocator.alloc ~typ:t1 ~size_bytes:24);
  free ~ptr:ptrs.(5);
  Alcotest.check_raises "double free"
    (Invalid_argument "Dyna_soa.free: slot is already free (double free)")
    (fun () -> free ~ptr:ptrs.(5));
  Alcotest.check_raises "interior pointer"
    (Invalid_argument "Dyna_soa.free: not an object base")
    (fun () -> free ~ptr:(ptrs.(0) + 4));
  let stats = alloc.Allocator.stats () in
  check Alcotest.bool "scan cycles accounted" true
    (stats.Allocator.bitmap_scan_cycles > 0.
     && stats.Allocator.free_cycles = 2. *. Dyna_soa.cycles_per_free);
  let rendered = Format.asprintf "%a" Allocator.pp_stats stats in
  check Alcotest.bool "pp shows both fragmentation figures" true
    (let has s sub =
       let n = String.length sub in
       let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
       go 0
     in
     has rendered "efrag" && has rendered "ifrag")

let test_dyna_drained_blocks_stay_reserved () =
  let alloc, summary, t1, _ = dyna_pair ~block_slots:8 () in
  let ptrs = Array.init 16 (fun _ -> alloc.Allocator.alloc ~typ:t1 ~size_bytes:24) in
  let free = Option.get alloc.Allocator.free in
  let reserved = (alloc.Allocator.stats ()).Allocator.reserved_bytes in
  Array.iter (fun p -> free ~ptr:p) ptrs;
  let s = alloc.Allocator.stats () in
  check Alcotest.int "drained blocks stay reserved" reserved
    s.Allocator.reserved_bytes;
  check Alcotest.int "nothing used" 0 s.Allocator.used_bytes;
  check (Alcotest.float 1e-9) "external fragmentation counts empty blocks" 1.0
    (Allocator.external_fragmentation s);
  check Alcotest.bool "internal fragmentation from metadata/rounding" true
    (Allocator.internal_fragmentation s > 0.);
  let sm = summary () in
  check Alcotest.int "two blocks chained" 2 sm.Dyna_soa.n_blocks;
  check Alcotest.int "both drained" 2 sm.Dyna_soa.empty_blocks;
  (* Drained blocks are reused, not re-reserved. *)
  ignore (alloc.Allocator.alloc ~typ:t1 ~size_bytes:24);
  check Alcotest.int "no regrow on realloc" reserved
    (alloc.Allocator.stats ()).Allocator.reserved_bytes

let test_dyna_regions_typed_sorted () =
  let alloc, _, t1, t2 = dyna_pair ~block_slots:4 () in
  let placed = ref [] in
  for _ = 1 to 10 do
    placed :=
      (alloc.Allocator.alloc ~typ:t1 ~size_bytes:24, Registry.type_id t1)
      :: (alloc.Allocator.alloc ~typ:t2 ~size_bytes:32, Registry.type_id t2)
      :: !placed
  done;
  let regions = alloc.Allocator.regions () in
  check Alcotest.int "one region per block" 6 (List.length regions);
  let rec sorted_disjoint = function
    | a :: (b :: _ as rest) ->
      a.Region.limit <= b.Region.base && sorted_disjoint rest
    | _ -> true
  in
  check Alcotest.bool "sorted and disjoint" true (sorted_disjoint regions);
  List.iter
    (fun (addr, type_id) ->
      match List.find_opt (fun r -> Region.contains r addr) regions with
      | Some r -> check Alcotest.int "region typed" type_id r.Region.type_id
      | None -> Alcotest.fail "allocated base outside every region")
    !placed

let test_dyna_feeds_shadow () =
  let module Shadow_heap = Repro_san.Shadow_heap in
  let shadow = Shadow_heap.create () in
  let alloc, _, t1, _ = dyna_pair ~shadow () in
  let a = alloc.Allocator.alloc ~typ:t1 ~size_bytes:24 in
  let b = alloc.Allocator.alloc ~typ:t1 ~size_bytes:24 in
  check Alcotest.int "one record per object (not per extent)" 2
    (Shadow_heap.n_allocations shadow);
  let fa = Option.get alloc.Allocator.field_addr in
  (match Shadow_heap.find shadow (fa ~obj:a ~off:16) with
   | Some r ->
     check Alcotest.int "field extent owned by first object" 0 r.Shadow_heap.index;
     check Alcotest.int "type recorded" (Registry.type_id t1) r.Shadow_heap.type_id
   | None -> Alcotest.fail "field extent missing from shadow map");
  (match Shadow_heap.find shadow (fa ~obj:b ~off:16) with
   | Some r ->
     check Alcotest.int "neighbour field maps to its own record" 1
       r.Shadow_heap.index
   | None -> Alcotest.fail "neighbour field extent missing");
  (* Slot 2's header storage is reserved heap with no live object. *)
  match Shadow_heap.classify shadow ~addr:(b + 8) ~width:8 with
  | Shadow_heap.Heap_hole -> ()
  | _ -> Alcotest.fail "unallocated slot should classify as a heap hole"

let prop_dyna_bitmap_consistent =
  QCheck.Test.make
    ~name:"DynaSOA: popcount = live objects, no double placement, slots reused"
    ~count:50
    QCheck.(list_of_size (Gen.int_range 1 200) (int_bound 2))
    (fun ops ->
      let _, space, _, t1, _ = dummy_registry () in
      let alloc, summary =
        Dyna_soa.create_with_summary ~block_slots:16 ~header_words:2 ~space ()
      in
      let free = Option.get alloc.Allocator.free in
      let live = Hashtbl.create 64 in
      let stack = ref [] in
      let ok = ref true in
      List.iter
        (fun op ->
          match (op, !stack) with
          | 0, _ | _, [] ->
            let p = alloc.Allocator.alloc ~typ:t1 ~size_bytes:24 in
            if Hashtbl.mem live p then ok := false;
            Hashtbl.replace live p ();
            stack := p :: !stack
          | _, p :: rest ->
            free ~ptr:p;
            Hashtbl.remove live p;
            stack := rest)
        ops;
      let s = summary () in
      !ok
      && s.Dyna_soa.live_slots = Hashtbl.length live
      && s.Dyna_soa.bitmap_live_slots = s.Dyna_soa.live_slots
      && (alloc.Allocator.stats ()).Allocator.live_objects = Hashtbl.length live)

(* A naive model of the SoA allocator's lookups, read off the address
   space: every arena named "dyna:..." is one block of [slots] slots,
   whose object size and type are those of any object placed in it. An
   address resolves by a linear scan over those arenas; the storage
   address of a byte of an object's canonical image is the layout of
   dyna_soa.mli written out again. *)
type naive_block = { nbase : int; nsize : int; nobj : int; ntype : int }

let naive_find blocks a =
  List.find_opt (fun b -> a >= b.nbase && a < b.nbase + b.nsize) blocks

let naive_slot ~slots b a =
  let off = a - b.nbase - Dyna_soa.meta_bytes in
  if off < 0 || off mod 8 <> 0 || off / 8 >= slots then None else Some (off / 8)

let naive_field_addr ~hdr_words ~slots blocks ~obj ~off =
  match naive_find blocks obj with
  | None -> Ok (obj + off)
  | Some b -> (
    match naive_slot ~slots b obj with
    | None -> Error "Dyna_soa.field_addr: not an object base"
    | Some slot ->
      let data = b.nbase + Dyna_soa.meta_bytes and hdr = hdr_words * 8 in
      if off < hdr then Ok (data + (off / 8 * 8 * slots) + (slot * 8) + (off mod 8))
      else
        let f = off - hdr in
        Ok (data + (hdr * slots) + (f / 4 * 4 * slots) + (slot * 4) + (f mod 4)))

let naive_regions ~slots blocks =
  List.sort compare
    (List.map
       (fun b -> (b.nbase, b.nbase + Dyna_soa.meta_bytes + (b.nobj * slots), b.ntype))
       blocks)

let naive_contiguity blocks =
  let sorted = List.sort (fun a b -> compare a.nbase b.nbase) blocks in
  List.rev
    (List.fold_left
       (fun spans b ->
         match spans with
         | (base, limit, tid) :: rest when limit = b.nbase && tid = b.ntype ->
           (base, b.nbase + b.nsize, tid) :: rest
         | _ -> (b.nbase, b.nbase + b.nsize, b.ntype) :: spans)
       [] sorted)

let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

(* Ops: kind 0-5 allocates an object of type [a mod 3] with [b mod 4]
   fields, 6-8 frees the [a]-th probe address, 9 reserves a foreign
   arena, so that blocks are not all adjacent. *)
let prop_dyna_matches_naive_scan =
  QCheck.Test.make ~name:"DynaSOA lookups match a linear scan of every block"
    ~count:100
    QCheck.(
      pair (pair (int_range 1 2) (int_range 1 40))
        (list_of_size (Gen.int_range 1 150)
           (triple (int_bound 9) small_nat small_nat)))
    (fun ((hdr_words, slots), ops) ->
      let _, space, reg, t1, t2 = dummy_registry () in
      let impl = Registry.register_impl reg ~name:"noop3" (fun _ _ -> ()) in
      let t3 = Registry.define_type reg ~name:"T3" ~field_words:1 ~slots:[| impl |] () in
      let types = [| t1; t2; t3 |] in
      let alloc =
        Dyna_soa.create ~block_slots:slots ~header_words:hdr_words ~space ()
      in
      let fa = Option.get alloc.Allocator.field_addr
      and free = Option.get alloc.Allocator.free in
      let owner = Hashtbl.create 16 (* arena base -> (obj bytes, type id) *) in
      let live = Hashtbl.create 64 and placed = ref [] in
      let blocks () =
        List.filter_map
          (fun (a : Address_space.arena) ->
            if String.starts_with ~prefix:"dyna:" a.name then
              let nobj, ntype = Hashtbl.find owner a.base in
              Some { nbase = a.base; nsize = a.size; nobj; ntype }
            else None)
          (Address_space.arenas space)
      in
      let probes () =
        let around =
          List.concat_map
            (fun (a : Address_space.arena) ->
              [ a.base - 1; a.base; a.base + 4; a.base + a.size - 1; a.base + a.size ])
            (Address_space.arenas space)
        in
        List.concat_map (fun p -> [ p; p + 4; p + 8 ]) !placed
        @ around @ [ 0; 0x1000; Vaddr.va_mask - 1 ]
      in
      let expect what model real =
        if model <> real then
          QCheck.Test.fail_reportf "%s: model and allocator disagree" what
      in
      let check_lookups () =
        let blocks = blocks () in
        let max_obj = List.fold_left (fun m b -> max m b.nobj) (hdr_words * 8) blocks in
        List.iter
          (fun obj ->
            for off = 0 to max_obj - 1 do
              expect "field_addr"
                (naive_field_addr ~hdr_words ~slots blocks ~obj ~off)
                (outcome (fun () -> fa ~obj ~off))
            done)
          (probes ());
        expect "regions" (naive_regions ~slots blocks)
          (List.map
             (fun r -> (r.Region.base, r.Region.limit, r.Region.type_id))
             (alloc.Allocator.regions ()));
        expect "contiguity" (naive_contiguity blocks)
          (List.map
             (fun r -> (r.Region.base, r.Region.limit, r.Region.type_id))
             (alloc.Allocator.contiguity ()))
      in
      List.iteri
        (fun i (kind, a, b) ->
          (if kind <= 5 then begin
             let typ = types.(a mod 3) in
             let size = (hdr_words * 8) + (4 * (b mod 4)) in
             let p = alloc.Allocator.alloc ~typ ~size_bytes:size in
             let arena =
               List.find
                 (fun (r : Address_space.arena) -> p >= r.base && p < r.base + r.size)
                 (Address_space.arenas space)
             in
             let tid = Registry.type_id typ in
             (match Hashtbl.find_opt owner arena.base with
              | None -> Hashtbl.add owner arena.base (size, tid)
              | Some o -> expect "block holds one size and type" o (size, tid));
             expect "placed on a free slot" false (Hashtbl.mem live p);
             Hashtbl.replace live p ();
             placed := p :: !placed
           end
           else if kind <= 8 then begin
             let pool = probes () in
             let ptr = List.nth pool (a mod List.length pool) in
             let model =
               match naive_find (blocks ()) ptr with
               | None -> Error "Dyna_soa.free: address outside every block"
               | Some blk -> (
                 match naive_slot ~slots blk ptr with
                 | None -> Error "Dyna_soa.free: not an object base"
                 | Some _ when not (Hashtbl.mem live ptr) ->
                   Error "Dyna_soa.free: slot is already free (double free)"
                 | Some _ -> Ok ())
             in
             expect "free" model (outcome (fun () -> free ~ptr));
             if model = Ok () then Hashtbl.remove live ptr
           end
           else
             ignore
               (Address_space.reserve space ~name:"foreign" ~size:(4096 * (1 + (a mod 2)))));
          if i mod 10 = 9 then check_lookups ())
        ops;
      check_lookups ();
      expect "live objects" (Hashtbl.length live)
        (alloc.Allocator.stats ()).Allocator.live_objects;
      true)

(* Two types interleaved, so lookups alternate between open blocks. *)
let dyna_interleaved ~n =
  let _, space, _, t1, t2 = dummy_registry () in
  let alloc = Dyna_soa.create ~block_slots:4 ~header_words:2 ~space () in
  let fa = Option.get alloc.Allocator.field_addr in
  let objs =
    Array.init n (fun i ->
        let p = alloc.Allocator.alloc ~typ:(if i land 1 = 0 then t1 else t2)
            ~size_bytes:(if i land 1 = 0 then 24 else 32) in
        (* As construction does: write the new object's headers. *)
        ignore (fa ~obj:p ~off:0 + fa ~obj:p ~off:8);
        p)
  in
  (fa, objs)

let test_dyna_field_addr_allocates_nothing () =
  let fa, objs = dyna_interleaved ~n:400 in
  let n = Array.length objs in
  let sweep () =
    let acc = ref 0 in
    (* Strided visits miss the one-entry cache, neighbours hit it, and
       [0x1000] lies outside every block. *)
    for i = 0 to n - 1 do
      let obj = objs.(i * 7 mod n) in
      acc := !acc + fa ~obj ~off:16 + fa ~obj ~off:20 + fa ~obj:0x1000 ~off:4
    done;
    !acc
  in
  let expected = sweep () in
  let w0 = Gc.minor_words () in
  let got = sweep () in
  let words = Gc.minor_words () -. w0 in
  check Alcotest.int "same addresses" expected got;
  check (Alcotest.float 0.) "minor words of a field_addr sweep" 0. words

let test_dyna_setup_is_linear () =
  let minor_words n =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (dyna_interleaved ~n));
    Gc.minor_words () -. w0
  in
  let n = 2000 in
  let small = minor_words n and large = minor_words (4 * n) in
  if large >= 5. *. small then
    Alcotest.failf "%d objects cost %.0f minor words, %d cost %.0f (>= 5x)" n small
      (4 * n) large

(* --- range table ---------------------------------------------------------- *)

let build_range_table regions_spec =
  let heap, space = make_space () in
  let reg = Registry.create ~heap in
  let impl = Registry.register_impl reg ~name:"noop" (fun _ _ -> ()) in
  let n_types = List.fold_left (fun acc (_, _, t) -> max acc (t + 1)) 0 regions_spec in
  for i = 0 to n_types - 1 do
    ignore
      (Registry.define_type reg ~name:(Printf.sprintf "T%d" i) ~field_words:1
         ~slots:[| impl |] ())
  done;
  let vts = Vtable_space.create ~heap ~space () in
  Registry.materialize reg ~vtspace:vts ~space;
  let table = Range_table.create ~heap ~space in
  let regions =
    List.map (fun (base, limit, t) -> Region.make ~base ~limit ~type_id:t) regions_spec
  in
  Range_table.rebuild table ~registry:reg ~regions;
  (heap, table, reg)

let test_range_table_host_lookup () =
  let _, table, _ =
    build_range_table [ (0x1000, 0x2000, 0); (0x3000, 0x5000, 1); (0x8000, 0x9000, 2) ]
  in
  check Alcotest.int "leaves padded to pow2" 4 (Range_table.n_leaves table);
  check Alcotest.int "depth" 2 (Range_table.depth table);
  let type_at addr =
    match Range_table.find_region_host table addr with
    | Some r -> r.Region.type_id
    | None -> -1
  in
  check Alcotest.int "first region" 0 (type_at 0x1800);
  check Alcotest.int "second region" 1 (type_at 0x3000);
  check Alcotest.int "third region" 2 (type_at 0x8FFF);
  check Alcotest.int "gap misses" (-1) (type_at 0x2800);
  check Alcotest.int "below misses" (-1) (type_at 0x10)

let test_range_table_lookup_emit () =
  let heap, table, reg =
    build_range_table [ (0x1000, 0x2000, 0); (0x3000, 0x5000, 1) ]
  in
  let ctx = Warp_ctx.create ~heap ~warp_id:0 ~lanes:[| 0; 1; 2 |] () in
  let encoded =
    Range_table.lookup_emit table ctx ~objs:[| 0x1100; 0x3100; 0x1200 |] ~slot:0
  in
  let impls = Array.map Registry.decode_impl_id encoded in
  let expect_t0 = Registry.impl_of_slot (Registry.find_type reg 0) ~slot:0 in
  let expect_t1 = Registry.impl_of_slot (Registry.find_type reg 1) ~slot:0 in
  check (Alcotest.array Alcotest.int) "impl per lane"
    [| expect_t0; expect_t1; expect_t0 |] impls;
  (* The emitted walk must be labelled as COAL lookup plus one vFunc load. *)
  let trace = Warp_ctx.trace ctx in
  let coal_loads = ref 0 and vfunc_loads = ref 0 in
  for i = 0 to Trace.length trace - 1 do
    if Trace.op trace i = Trace.op_load then
      match Label.of_index (Trace.label_index trace i) with
      | Label.Coal_lookup -> incr coal_loads
      | Label.Vfunc_load -> incr vfunc_loads
      | _ -> ()
  done;
  check Alcotest.int "walk loads = 2*depth + leaf check" 3 !coal_loads;
  check Alcotest.int "one vfunc load" 1 !vfunc_loads

let test_range_table_rejects_stray_address () =
  let heap, table, _ = build_range_table [ (0x1000, 0x2000, 0) ] in
  let ctx = Warp_ctx.create ~heap ~warp_id:0 ~lanes:[| 0 |] () in
  Alcotest.check_raises "no region"
    (Failure "Range_table.lookup_emit: address in no region") (fun () ->
      ignore (Range_table.lookup_emit table ctx ~objs:[| 0x9999 |] ~slot:0))

let test_range_table_rejects_overlap () =
  let heap, space = make_space () in
  let reg = Registry.create ~heap in
  let impl = Registry.register_impl reg ~name:"noop" (fun _ _ -> ()) in
  ignore (Registry.define_type reg ~name:"T0" ~field_words:1 ~slots:[| impl |] ());
  let table = Range_table.create ~heap ~space in
  Alcotest.check_raises "overlap"
    (Invalid_argument "Range_table.rebuild: overlapping regions") (fun () ->
      Range_table.rebuild table ~registry:reg
        ~regions:
          [ Region.make ~base:0 ~limit:100 ~type_id:0;
            Region.make ~base:50 ~limit:150 ~type_id:0 ])

let prop_range_table_matches_linear_scan =
  let gen =
    QCheck.make
      QCheck.Gen.(
        let* n = int_range 1 12 in
        let* sizes = list_size (return n) (int_range 1 50) in
        let* gaps = list_size (return n) (int_range 0 30) in
        return (sizes, gaps))
  in
  QCheck.Test.make ~name:"segment tree equals linear region scan" ~count:100 gen
    (fun (sizes, gaps) ->
      let specs, _ =
        List.fold_left2
          (fun (acc, cursor) size gap ->
            let base = cursor + (gap * 64) in
            let limit = base + (size * 64) in
            ((base, limit, List.length acc mod 3) :: acc, limit))
          ([], 4096) sizes gaps
      in
      let specs = List.rev specs in
      let _, table, _ = build_range_table specs in
      let regions =
        List.map (fun (b, l, t) -> Region.make ~base:b ~limit:l ~type_id:t) specs
      in
      let linear addr = List.find_opt (fun r -> Region.contains r addr) regions in
      let probe addr =
        let expected = linear addr in
        let got = Range_table.find_region_host table addr in
        match (expected, got) with
        | None, None -> true
        | Some a, Some b -> a.Region.base = b.Region.base
        | _ -> false
      in
      List.for_all
        (fun (b, l, _) -> probe b && probe (l - 1) && probe l && probe ((b + l) / 2))
        specs)

(* --- dispatch instruction sequences -------------------------------------- *)

let mini_runtime technique =
  let rt = Runtime.create ~technique () in
  let log = ref [] in
  let impl_a =
    Runtime.register_impl rt ~name:"A.f" (fun env objs ->
        log := `A (Array.length objs) :: !log;
        ignore (Env.field_load env ~objs ~field:0))
  in
  let impl_b =
    Runtime.register_impl rt ~name:"B.f" (fun env objs ->
        log := `B (Array.length objs) :: !log;
        ignore (Env.field_load env ~objs ~field:0))
  in
  let ta = Runtime.define_type rt ~name:"A" ~field_words:2 ~slots:[| impl_a |] () in
  let tb = Runtime.define_type rt ~name:"B" ~field_words:2 ~slots:[| impl_b |] () in
  (rt, ta, tb, log)

let dispatch_trace technique =
  let rt, ta, tb, log = mini_runtime technique in
  let objs = [| Runtime.new_obj rt ta; Runtime.new_obj rt tb; Runtime.new_obj rt ta |] in
  let captured = ref None in
  Runtime.launch rt ~n_threads:3 (fun env ->
      let lane_objs = Array.map (fun t -> objs.(t)) (Warp_ctx.tids env.Env.ctx) in
      env.Env.vcall env ~objs:lane_objs ~slot:0;
      captured := Some (Warp_ctx.trace env.Env.ctx));
  (Option.get !captured, log)

let labels_of trace =
  List.init (Trace.length trace) (fun i ->
      Label.of_index (Trace.label_index trace i))

let has_label trace l = List.mem l (labels_of trace)

let count_op trace op =
  let n = ref 0 in
  for i = 0 to Trace.length trace - 1 do
    if Trace.op trace i = op then incr n
  done;
  !n

let test_dispatch_cuda_sequence () =
  let trace, log = dispatch_trace T.Cuda in
  check Alcotest.bool "A load" true (has_label trace Label.Vtable_load);
  check Alcotest.bool "B load" true (has_label trace Label.Vfunc_load);
  check Alcotest.bool "const indirection" true (has_label trace Label.Const_indirect);
  check Alcotest.int "two divergent groups -> two indirect calls" 2
    (count_op trace Trace.op_call_indirect);
  check Alcotest.int "both bodies ran" 2 (List.length !log);
  check Alcotest.bool "A got two lanes" true (List.mem (`A 2) !log);
  check Alcotest.bool "B got one lane" true (List.mem (`B 1) !log)

let test_dispatch_concord_sequence () =
  let trace, _ = dispatch_trace T.Concord in
  check Alcotest.bool "tag load" true (has_label trace Label.Concord_tag);
  check Alcotest.bool "switch computes" true (has_label trace Label.Concord_switch);
  check Alcotest.bool "no vtable load" false (has_label trace Label.Vtable_load);
  check Alcotest.bool "no const" false (has_label trace Label.Const_indirect);
  check Alcotest.int "direct calls" 2
    (count_op trace Trace.op_call_direct);
  check Alcotest.int "no indirect calls" 0
    (count_op trace Trace.op_call_indirect)

let test_dispatch_coal_sequence () =
  let trace, _ = dispatch_trace T.Coal in
  check Alcotest.bool "range walk" true (has_label trace Label.Coal_lookup);
  check Alcotest.bool "no object vtable load" false (has_label trace Label.Vtable_load);
  check Alcotest.bool "leaf vfunc load" true (has_label trace Label.Vfunc_load);
  check Alcotest.int "indirect calls" 2
    (count_op trace Trace.op_call_indirect)

let test_dispatch_tp_sequence () =
  let trace, _ = dispatch_trace T.type_pointer in
  check Alcotest.bool "shift/add" true (has_label trace Label.Tp_dispatch);
  check Alcotest.bool "no vtable load" false (has_label trace Label.Vtable_load);
  check Alcotest.bool "vfunc load stays" true (has_label trace Label.Vfunc_load);
  check Alcotest.bool "prototype strips in bodies" true (has_label trace Label.Tp_strip)

let test_dispatch_tp_hw_no_strips () =
  let trace, _ = dispatch_trace T.type_pointer_hw in
  check Alcotest.bool "hw mmu: no strip instructions" false (has_label trace Label.Tp_strip)

let converged_trace technique =
  let rt, ta, _, _ = mini_runtime technique in
  let obj = Runtime.new_obj rt ta in
  let captured = ref None in
  Runtime.launch rt ~n_threads:4 (fun env ->
      let lane_objs = Array.make (Warp_ctx.n_active env.Env.ctx) obj in
      env.Env.vcall_converged env ~objs:lane_objs ~slot:0;
      captured := Some (Warp_ctx.trace env.Env.ctx));
  Option.get !captured

let test_dispatch_coal_converged_uninstrumented () =
  let trace = converged_trace T.Coal in
  check Alcotest.bool "no range walk at converged sites" false
    (has_label trace Label.Coal_lookup);
  check Alcotest.bool "falls back to the vtable chain" true
    (has_label trace Label.Vtable_load)

(* --- runtime ---------------------------------------------------------------- *)

let test_runtime_headers_and_tags () =
  let rt, ta, tb, _ = mini_runtime T.type_pointer in
  let ptr = Runtime.new_obj rt ta in
  let ptr_b = Runtime.new_obj rt tb in
  let reg = Runtime.registry rt in
  let vts_tag vtable = (vtable - Vaddr.strip vtable) = 0 in
  ignore vts_tag;
  (* The tag must encode each type's vtable location; type A's vtable sits
     at arena offset 0, so its tag is legitimately 0. *)
  check Alcotest.int "tag encodes B's vtable offset"
    (Registry.gpu_vtable tb - Registry.gpu_vtable ta)
    (Vaddr.tag_of ptr_b);
  check Alcotest.int "A's tag is the zero offset" 0 (Vaddr.tag_of ptr);
  let heap = Runtime.heap rt in
  (* Header word 1 holds the GPU vtable; word 0 the CPU vtable. *)
  check Alcotest.int "gpu vtable header" (Registry.gpu_vtable ta)
    (Page_store.load heap (Vaddr.strip ptr + 8));
  check Alcotest.int "cpu vtable header" (Registry.cpu_vtable ta)
    (Page_store.load heap (Vaddr.strip ptr));
  ignore reg

let test_runtime_concord_tag_header () =
  let rt, ta, _, _ = mini_runtime T.Concord in
  let ptr = Runtime.new_obj rt ta in
  check Alcotest.int "embedded type tag" (Registry.type_id ta + 1)
    (Page_store.load (Runtime.heap rt) ptr)

let test_runtime_counts_vcalls () =
  let rt, ta, _, _ = mini_runtime T.Cuda in
  let objs = Runtime.new_objs rt ta 64 in
  let table = Array.copy objs in
  Runtime.launch rt ~n_threads:64 (fun env ->
      let lane_objs = Array.map (fun t -> table.(t)) (Warp_ctx.tids env.Env.ctx) in
      env.Env.vcall env ~objs:lane_objs ~slot:0);
  check Alcotest.int "warp vcalls" 2 (Runtime.warp_vcalls rt);
  check Alcotest.int "thread vcalls" 64 (Runtime.thread_vcalls rt);
  check Alcotest.bool "pki positive" true (Runtime.vfunc_pki rt > 0.)

let test_runtime_checksum_reflects_state () =
  let rt, ta, _, _ = mini_runtime T.Cuda in
  let ptr = Runtime.new_obj rt ta in
  let before = Runtime.checksum rt in
  Object_model.field_store_host (Runtime.object_model rt) (Runtime.heap rt) ~ptr
    ~field:0 99;
  check Alcotest.bool "checksum moves with state" true (before <> Runtime.checksum rt)

(* Constructing an object — placement, headers, tag, the allocation
   record and the allocator's cost counters — allocates nothing. Any
   per-object allocation is at least two words (a boxed float, an
   option, a tuple), so fewer than one minor word per object means none
   happened; what remains is amortized set-up: SharedOA's doubling
   chunks and DynaSOA's one block per 64 objects. *)
let test_new_obj_allocates_nothing () =
  List.iter
    (fun technique ->
      List.iter
        (fun alloc ->
          let rt = Runtime.create ~alloc ~technique () in
          let impl = Runtime.register_impl rt ~name:"f" (fun _ _ -> ()) in
          let ta = Runtime.define_type rt ~name:"A" ~field_words:3 ~slots:[| impl |] () in
          let tb = Runtime.define_type rt ~name:"B" ~field_words:2 ~slots:[| impl |] () in
          (* GraphChi's loader order: one A, then a run of B's. *)
          let build n =
            for i = 1 to n do
              ignore (Runtime.new_obj rt (if i land 7 = 0 then ta else tb))
            done
          in
          build 2_000;
          let n = 12_000 in
          let w0 = Gc.minor_words () in
          build n;
          let per_obj = (Gc.minor_words () -. w0) /. float_of_int n in
          if per_obj >= 1. then
            Alcotest.failf "%s on %s: %.2f minor words per new_obj" (T.name technique)
              (Alloc_family.name alloc) per_obj)
        Alloc_family.all)
    T.all_paper

let test_cross_technique_functional_equality () =
  (* The paper's functional validation: the same program must produce the
     same heap contents under every technique. *)
  let result technique =
    let rt, ta, tb, _ = mini_runtime technique in
    let objs =
      Array.init 40 (fun i -> Runtime.new_obj rt (if i mod 3 = 0 then tb else ta))
    in
    let impl_bump =
      Runtime.register_impl rt ~name:"bump" (fun env objs ->
          let v = Env.field_load env ~objs ~field:1 in
          Env.field_store env ~objs ~field:1 (Array.map (fun x -> x + 7) v))
    in
    ignore impl_bump;
    Runtime.launch rt ~n_threads:40 (fun env ->
        let lane_objs = Array.map (fun t -> objs.(t)) (Warp_ctx.tids env.Env.ctx) in
        env.Env.vcall env ~objs:lane_objs ~slot:0);
    Runtime.checksum rt
  in
  let base = result T.Cuda in
  List.iter
    (fun t -> check Alcotest.int (T.name t ^ " checksum") base (result t))
    [ T.Concord; T.Shared_oa; T.Coal; T.type_pointer; T.type_pointer_hw;
      T.type_pointer_on_cuda ]

(* --- garray ----------------------------------------------------------------- *)

let test_garray () =
  let heap, space = make_space () in
  let arr = Garray.alloc ~space ~name:"g" ~len:10 in
  Garray.set arr heap 3 42;
  check Alcotest.int "host roundtrip" 42 (Garray.get arr heap 3);
  let ctx = Warp_ctx.create ~heap ~warp_id:0 ~lanes:[| 0; 1 |] () in
  let v = Garray.load arr ctx ~idxs:[| 3; 4 |] in
  check (Alcotest.array Alcotest.int) "warp load" [| 42; 0 |] v;
  Garray.store arr ctx ~idxs:[| 0; 1 |] [| 7; 8 |];
  check Alcotest.int "warp store" 7 (Garray.get arr heap 0);
  Alcotest.check_raises "bounds" (Invalid_argument "Garray.addr: index out of bounds")
    (fun () -> ignore (Garray.get arr heap 10))

(* The strongest guarantee in the repository: a *random* polymorphic
   program — random hierarchy, field counts, per-type behaviours, object
   mix — must produce a bit-identical heap under every technique. *)
let prop_random_programs_technique_invariant =
  let gen =
    QCheck.make
      ~print:(fun (a, b, c) -> Printf.sprintf "types=%d objs=%d seed=%d" a b c)
      QCheck.Gen.(
        let* n_types = int_range 1 4 in
        let* n_objects = int_range 8 96 in
        let* seed = int_range 0 10_000 in
        return (n_types, n_objects, seed))
  in
  QCheck.Test.make ~name:"random programs are technique-invariant" ~count:25 gen
    (fun (n_types, n_objects, seed) ->
      let run technique =
        let rt = Runtime.create ~technique () in
        let rng = Repro_util.Rng.create ~seed in
        let mk_impl k (env : Env.t) objs =
          let v = Env.field_load env ~objs ~field:0 in
          Env.compute env;
          let v' =
            match k mod 3 with
            | 0 -> Array.map (fun x -> x + k + 1) v
            | 1 -> Array.map (fun x -> x lxor (k + 5)) v
            | _ -> Array.map (fun x -> (x * 3) land 0xFFFF) v
          in
          Env.field_store env ~objs ~field:0 v'
        in
        let types =
          Array.init n_types (fun k ->
              let impl =
                Runtime.register_impl rt ~name:(Printf.sprintf "f%d" k) (mk_impl k)
              in
              Runtime.define_type rt ~name:(Printf.sprintf "T%d" k)
                ~field_words:(1 + (k mod 3)) ~slots:[| impl |] ())
        in
        let objs =
          Array.init n_objects (fun _ ->
              Runtime.new_obj rt types.(Repro_util.Rng.int rng n_types))
        in
        let om = Runtime.object_model rt in
        let heap = Runtime.heap rt in
        Array.iteri
          (fun i ptr -> Object_model.field_store_host om heap ~ptr ~field:0 i)
          objs;
        Runtime.launch rt ~n_threads:n_objects (fun env ->
            let lane_objs =
              Array.map (fun t -> objs.(t)) (Warp_ctx.tids env.Env.ctx)
            in
            env.Env.vcall env ~objs:lane_objs ~slot:0);
        Runtime.checksum rt
      in
      let base = run T.Cuda in
      List.for_all
        (fun t -> run t = base)
        [ T.Concord; T.Shared_oa; T.Coal; T.type_pointer; T.type_pointer_on_cuda ])

(* [diverge] is the only divergence path, so it must produce exactly the
   reference grouping: the same keys in first-occurrence order, each with
   its parent indices in lane order. [uniform] forces warp-uniform keys,
   which [diverge] serves on the undivided context. *)
let prop_diverge_group_count =
  QCheck.Test.make ~name:"dispatch serializes one group per distinct target" ~count:100
    QCheck.(pair bool (list_of_size (Gen.int_range 1 32) (int_bound 3)))
    (fun (uniform, keys) ->
      let keys =
        Array.of_list (if uniform then List.map (fun _ -> List.hd keys) keys else keys)
      in
      let heap = Page_store.create () in
      let ctx =
        Warp_ctx.create ~heap ~warp_id:0 ~lanes:(Array.init (Array.length keys) Fun.id) ()
      in
      let groups = ref [] in
      Warp_ctx.diverge ctx ~label:Label.Call ~keys (fun ~key _ idxs ->
          groups := (key, Array.to_list idxs) :: !groups);
      let groups = List.rev !groups in
      List.length groups = List.length (List.sort_uniq compare (Array.to_list keys))
      && groups = Warp_ctx.group_by_key keys)

let suite =
  [
    Alcotest.test_case "technique parsing" `Quick test_technique_parsing;
    Alcotest.test_case "technique predicates" `Quick test_technique_predicates;
    Alcotest.test_case "object model headers" `Quick test_object_model_headers;
    Alcotest.test_case "object model field addressing" `Quick
      test_object_model_field_addressing;
    Alcotest.test_case "object model sign extension" `Quick
      test_object_model_sign_extension;
    Alcotest.test_case "object model strip charge" `Quick test_object_model_strip_charge;
    Alcotest.test_case "vtable space tags" `Quick test_vtable_space_tags;
    Alcotest.test_case "vtable space exhaustion" `Quick test_vtable_space_exhaustion;
    Alcotest.test_case "vtable space padded index" `Quick test_vtable_space_padded_index;
    Alcotest.test_case "registry lifecycle" `Quick test_registry_lifecycle;
    Alcotest.test_case "region semantics" `Quick test_region_semantics;
    Alcotest.test_case "cuda alloc padding and scatter" `Quick
      test_cuda_alloc_padding_and_scatter;
    Alcotest.test_case "shared oa packs by type" `Quick test_shared_oa_packs_by_type;
    Alcotest.test_case "shared oa doubling and merge" `Quick
      test_shared_oa_doubling_and_merge;
    Alcotest.test_case "shared oa interleaved regions" `Quick
      test_shared_oa_interleaved_regions_sorted;
    Alcotest.test_case "shared oa logarithmic regions" `Quick
      test_shared_oa_logarithmic_regions;
    Alcotest.test_case "shared oa feeds shadow heap" `Quick
      test_shared_oa_feeds_shadow;
    Alcotest.test_case "allocation cost model" `Quick test_alloc_cost_model;
    Alcotest.test_case "alloc family parsing" `Quick test_alloc_family_parsing;
    Alcotest.test_case "dyna soa addressing" `Quick test_dyna_soa_addressing;
    Alcotest.test_case "dyna free reuse and double free" `Quick
      test_dyna_free_reuse_and_double_free;
    Alcotest.test_case "dyna drained blocks stay reserved" `Quick
      test_dyna_drained_blocks_stay_reserved;
    Alcotest.test_case "dyna regions typed and sorted" `Quick
      test_dyna_regions_typed_sorted;
    Alcotest.test_case "dyna feeds shadow heap" `Quick test_dyna_feeds_shadow;
    Alcotest.test_case "dyna field addr allocates nothing" `Quick
      test_dyna_field_addr_allocates_nothing;
    Alcotest.test_case "dyna setup is linear" `Quick test_dyna_setup_is_linear;
    Alcotest.test_case "range table host lookup" `Quick test_range_table_host_lookup;
    Alcotest.test_case "range table lookup emit" `Quick test_range_table_lookup_emit;
    Alcotest.test_case "range table stray address" `Quick
      test_range_table_rejects_stray_address;
    Alcotest.test_case "range table overlap" `Quick test_range_table_rejects_overlap;
    Alcotest.test_case "dispatch cuda sequence" `Quick test_dispatch_cuda_sequence;
    Alcotest.test_case "dispatch concord sequence" `Quick test_dispatch_concord_sequence;
    Alcotest.test_case "dispatch coal sequence" `Quick test_dispatch_coal_sequence;
    Alcotest.test_case "dispatch tp sequence" `Quick test_dispatch_tp_sequence;
    Alcotest.test_case "dispatch tp hw no strips" `Quick test_dispatch_tp_hw_no_strips;
    Alcotest.test_case "coal converged heuristic" `Quick
      test_dispatch_coal_converged_uninstrumented;
    Alcotest.test_case "runtime headers and tags" `Quick test_runtime_headers_and_tags;
    Alcotest.test_case "runtime concord tag" `Quick test_runtime_concord_tag_header;
    Alcotest.test_case "runtime counts vcalls" `Quick test_runtime_counts_vcalls;
    Alcotest.test_case "runtime checksum" `Quick test_runtime_checksum_reflects_state;
    Alcotest.test_case "new_obj allocates nothing" `Quick test_new_obj_allocates_nothing;
    Alcotest.test_case "cross-technique equality" `Quick
      test_cross_technique_functional_equality;
    Alcotest.test_case "garray" `Quick test_garray;
    QCheck_alcotest.to_alcotest prop_shared_oa_address_type_consistency;
    QCheck_alcotest.to_alcotest prop_shared_oa_regions_invariant;
    QCheck_alcotest.to_alcotest prop_dyna_bitmap_consistent;
    QCheck_alcotest.to_alcotest prop_dyna_matches_naive_scan;
    QCheck_alcotest.to_alcotest prop_range_table_matches_linear_scan;
    QCheck_alcotest.to_alcotest prop_random_programs_technique_invariant;
    QCheck_alcotest.to_alcotest prop_diverge_group_count;
  ]
