module Page_store = Repro_mem.Page_store
module Address_space = Repro_mem.Address_space
module Vaddr = Repro_mem.Vaddr
module Device = Repro_gpu.Device

type t = {
  technique : Technique.t;
  alloc_family : Alloc_family.t;
  heap : Page_store.t;
  space : Address_space.t;
  device : Device.t;
  registry : Registry.t;
  vtspace : Vtable_space.t;
  om : Object_model.t;
  allocator : Allocator.t;
  range_table : Range_table.t option;
  dispatch : Dispatch.t;
  san : Repro_san.Checker.t option;
  (* Every allocation in program order: pointer at [2i], type id at
     [2i + 1]. A plain [int array], so recording one neither allocates
     nor goes through the write barrier a polymorphic [Vec] pays. *)
  mutable allocs : int array;
  mutable n_allocs : int;
  mutable regions_dirty : bool;
  pages : Repro_vm.Policy.t option;
  mutable vm_dirty : bool;
}

let create ?config ?(chunk_objs = Shared_oa.default_chunk_objs) ?vt_encoding ?san
    ?telemetry ?alloc ?pages ~technique () =
  (match san with
   | Some checker
     when Repro_san.Checker.tags_expected checker
          <> Technique.tags_pointers technique ->
     invalid_arg
       "Runtime.create: sanitizer tags_expected disagrees with the technique"
   | _ -> ());
  let heap = Page_store.create () in
  let space = Address_space.create () in
  let device = Device.create ?config ?san ?telemetry ~heap () in
  let registry = Registry.create ~heap in
  let vtspace = Vtable_space.create ?encoding:vt_encoding ~heap ~space () in
  let om = Object_model.create technique in
  let shadow = Option.map Repro_san.Checker.shadow san in
  let alloc_family =
    match alloc with
    | Some fam -> fam
    | None -> Alloc_family.default_for technique
  in
  let allocator =
    match alloc_family with
    | Alloc_family.Shared_oa -> Shared_oa.create ?shadow ~chunk_objs ~space ()
    | Alloc_family.Cuda -> Cuda_alloc.create ?shadow ~space ()
    | Alloc_family.Dyna_soa ->
      Dyna_soa.create ?shadow ~header_words:(Object_model.header_words om)
        ~space ()
  in
  Object_model.set_addr_hook om allocator.Allocator.field_addr;
  let range_table =
    match technique with
    | Technique.Coal -> Some (Range_table.create ~heap ~space)
    | Technique.Cuda | Technique.Concord | Technique.Shared_oa
    | Technique.Type_pointer _ -> None
  in
  let dispatch = Dispatch.create ?san ~registry ~om ~vtspace ~range_table ~heap () in
  {
    technique;
    alloc_family;
    heap;
    space;
    device;
    registry;
    vtspace;
    om;
    allocator;
    range_table;
    dispatch;
    san;
    allocs = [||];
    n_allocs = 0;
    regions_dirty = true;
    pages;
    vm_dirty = pages <> None;
  }

let technique t = t.technique
let alloc_family t = t.alloc_family
let san t = t.san
let registry t = t.registry
let heap t = t.heap
let device t = t.device
let object_model t = t.om
let allocator t = t.allocator
let range_table t = t.range_table
let address_space t = t.space

let register_impl t ~name impl = Registry.register_impl t.registry ~name impl

let define_type t ~name ~field_words ?parent ~slots () =
  Registry.define_type t.registry ~name ~field_words ?parent ~slots ()

let ensure_materialized t =
  if not (Registry.materialized t.registry) then
    Registry.materialize t.registry ~vtspace:t.vtspace ~space:t.space

(* Through the object model, not raw [addr + word*8]: an SoA allocator
   stores each header word in a per-block array. *)
let store_header t addr word v =
  Page_store.store t.heap (Object_model.header_addr t.om ~ptr:addr ~word) v

let write_headers t typ addr =
  match t.technique with
  | Technique.Concord -> store_header t addr 0 (Registry.type_id typ + 1)
  | Technique.Cuda -> store_header t addr 0 (Registry.gpu_vtable typ)
  | Technique.Type_pointer { on_cuda_alloc = true; _ } ->
    store_header t addr 0 (Registry.gpu_vtable typ)
  | Technique.Shared_oa | Technique.Coal
  | Technique.Type_pointer { on_cuda_alloc = false; _ } ->
    store_header t addr 0 (Registry.cpu_vtable typ);
    store_header t addr 1 (Registry.gpu_vtable typ)

(* Rebuild the translation model from the current address-space layout
   and the allocator's reported contiguity. Called lazily from [launch]
   (like the range table) so a burst of allocations costs one rebuild;
   a rebuild replaces the whole model, so both TLB levels start cold. *)
let build_vm t =
  match t.pages with
  | None -> ()
  | Some policy ->
    let arenas =
      List.map
        (fun a ->
          (a.Address_space.base, a.Address_space.size))
        (Address_space.arenas t.space)
    in
    let promoted =
      match policy with
      | Repro_vm.Policy.Coalesce ->
        List.map
          (fun r -> (r.Region.base, r.Region.limit, r.Region.type_id))
          (t.allocator.Allocator.contiguity ())
      | Repro_vm.Policy.Flat_4k | Repro_vm.Policy.Flat_2m -> []
    in
    let table = Repro_vm.Page_table.build ~policy ~arenas ~promoted () in
    let n_sms = (Device.config t.device).Repro_gpu.Config.n_sms in
    Device.set_vm t.device (Some (Repro_vm.Vm.create ~n_sms ~table ()));
    (match t.san with
     | Some san -> Repro_san.Checker.set_page_table san (Some table)
     | None -> ());
    t.vm_dirty <- false

let vm t = Device.vm t.device

let pages t = t.pages

let record_alloc t ptr typ =
  let i = 2 * t.n_allocs in
  if i = Array.length t.allocs then begin
    let grown = Array.make (max 64 (2 * i)) 0 in
    for j = 0 to i - 1 do grown.(j) <- t.allocs.(j) done;
    t.allocs <- grown
  end;
  t.allocs.(i) <- ptr;
  t.allocs.(i + 1) <- Registry.type_id typ;
  t.n_allocs <- t.n_allocs + 1

let new_obj t typ =
  ensure_materialized t;
  let size_bytes =
    (* Objects are 8-aligned, as C++ requires of anything with a vptr. *)
    Vaddr.align_up
      (Object_model.object_bytes t.om ~field_words:(Registry.field_words typ))
      ~alignment:Vaddr.word_bytes
  in
  let addr = t.allocator.Allocator.alloc ~typ ~size_bytes in
  write_headers t typ addr;
  let ptr =
    if Technique.tags_pointers t.technique then begin
      let tag = Vtable_space.tag_of_vtable t.vtspace ~vtable:(Registry.gpu_vtable typ) in
      (match t.san with
       | Some san ->
         Repro_san.Shadow_heap.note_tag (Repro_san.Checker.shadow san)
           ~base:addr ~tag
       | None -> ());
      Vaddr.with_tag addr ~tag
    end
    else addr
  in
  record_alloc t ptr typ;
  t.regions_dirty <- true;
  if Option.is_some t.pages then t.vm_dirty <- true;
  ptr

let new_objs t typ n =
  if n < 0 then invalid_arg "Runtime.new_objs: negative count";
  Array.init n (fun _ -> new_obj t typ)

let n_objects t = t.n_allocs

let allocations t =
  Array.init t.n_allocs (fun i ->
      (t.allocs.(2 * i), Registry.find_type t.registry t.allocs.((2 * i) + 1)))

let launch t ~n_threads kernel =
  (match t.range_table with
   | Some table when t.regions_dirty ->
     Range_table.rebuild table ~registry:t.registry
       ~regions:(t.allocator.Allocator.regions ());
     (* A seeded range-table bug must survive rebuilds, so it is
        re-applied after each one. *)
     (match t.san with
      | Some san when Repro_san.Checker.mutation san = Some Repro_san.Mutation.Skew_range ->
        ignore (Range_table.skew_leaves table ~registry:t.registry)
      | _ -> ());
     t.regions_dirty <- false
   | Some _ | None -> ());
  (* After the range-table rebuild: each rebuild reserves a fresh arena,
     which the page table must cover before the kernel's range walks
     translate through it. *)
  if t.vm_dirty then build_vm t;
  Device.launch t.device ~n_threads (fun ctx ->
      kernel (Dispatch.make_env t.dispatch ctx))

let stats t = Device.stats t.device

let kernel_timeline t = Device.kernel_timeline t.device

let window_timeline t = Device.window_timeline t.device

let sample_window t = Device.sample_window t.device

let telemetry_dump t = Device.telemetry_dump t.device

let cycles t = Repro_gpu.Stats.cycles (Device.stats t.device)

let reset_stats t =
  Device.reset_stats t.device;
  Dispatch.reset_counters t.dispatch

let warp_vcalls t = Dispatch.warp_vcalls t.dispatch

let thread_vcalls t = Dispatch.thread_vcalls t.dispatch

let vfunc_pki t =
  let instrs = Repro_gpu.Stats.total_instructions (stats t) in
  if instrs = 0 then 0.
  else 1000. *. float_of_int (warp_vcalls t) /. float_of_int instrs

(* SplitMix-style mixing keeps the checksum sensitive to field order and
   values while staying allocation-free. *)
let mix h v =
  let h = h lxor (v + 0x9e3779b9 + (h lsl 6) + (h lsr 2)) in
  h land max_int

let checksum t =
  let acc = ref 0 in
  for i = 0 to t.n_allocs - 1 do
    let ptr = t.allocs.(2 * i) in
    let typ = Registry.find_type t.registry t.allocs.((2 * i) + 1) in
    acc := mix !acc (Registry.type_id typ);
    for field = 0 to Registry.field_words typ - 1 do
      acc := mix !acc (Object_model.field_load_host t.om t.heap ~ptr ~field)
    done
  done;
  !acc
