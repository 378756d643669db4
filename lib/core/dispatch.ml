module Warp_ctx = Repro_gpu.Warp_ctx
module Label = Repro_gpu.Label
module Vaddr = Repro_mem.Vaddr

type t = {
  registry : Registry.t;
  om : Object_model.t;
  vtspace : Vtable_space.t;
  range_table : Range_table.t option;
  heap : Repro_mem.Page_store.t;
  san : Repro_san.Checker.t option;
  mutable warp_vcalls : int;
  mutable thread_vcalls : int;
}

let create ?san ~registry ~om ~vtspace ~range_table ~heap () =
  (match (Object_model.technique om, range_table) with
   | Technique.Coal, None -> invalid_arg "Dispatch.create: COAL needs a range table"
   | _ -> ());
  { registry; om; vtspace; range_table; heap; san;
    warp_vcalls = 0; thread_vcalls = 0 }

let warp_vcalls t = t.warp_vcalls

let thread_vcalls t = t.thread_vcalls

let reset_counters t =
  t.warp_vcalls <- 0;
  t.thread_vcalls <- 0

(* Group lanes by resolved target and run each target's body over its
   subset: SIMT divergence on the (in)direct branch. A target-converged
   warp — the common case at well-behaved call sites — skips the
   grouping machinery entirely: same ctrl/call emission on the full
   warp, and the body gets [objs] itself (bodies only read their
   receiver array, so skipping the defensive copy is unobservable). *)
let branch_and_execute t env ~indirect ~objs impl_ids =
  let ctx = env.Env.ctx in
  (match t.san with
   | Some san ->
     Repro_san.Checker.record_dispatch san ~warp:(Warp_ctx.warp_id ctx)
       ~tids:(Warp_ctx.tids ctx) ~objs ~targets:impl_ids
   | None -> ());
  let n = Array.length impl_ids in
  let k0 = impl_ids.(0) in
  let uniform = ref true in
  let i = ref 1 in
  while !uniform && !i < n do
    if impl_ids.(!i) <> k0 then uniform := false;
    incr i
  done;
  if !uniform then begin
    Warp_ctx.ctrl ctx ~label:Label.Call;
    if indirect then Warp_ctx.call_indirect ctx ~label:Label.Call
    else Warp_ctx.call_direct ctx ~label:Label.Call;
    (Registry.impl t.registry k0) env objs
  end
  else
    Warp_ctx.diverge ctx ~label:Label.Call ~keys:impl_ids (fun ~key sub idxs ->
        if indirect then Warp_ctx.call_indirect sub ~label:Label.Call
        else Warp_ctx.call_direct sub ~label:Label.Call;
        let sub_objs = Warp_ctx.gather idxs objs in
        (Registry.impl t.registry key) (Env.restrict env sub) sub_objs)

(* The contemporary CUDA sequence (Fig. 1a): A, B, the constant-memory
   indirection, C. Also used by SharedOA and by COAL's converged sites.

   Every style computes per-lane addresses into the warp's scratch
   buffer ([load_into]) and rewrites loaded values in place instead of
   mapping them into fresh arrays. *)
let cuda_style t env ~objs ~slot =
  let ctx = env.Env.ctx in
  let header_word =
    match Object_model.gpu_vtable_slot t.om with
    | Some w -> w
    | None -> invalid_arg "Dispatch: technique has no vtable header"
  in
  let n = Array.length objs in
  let buf = Warp_ctx.addr_scratch ctx n in
  for i = 0 to n - 1 do
    buf.(i) <- Object_model.header_addr t.om ~ptr:objs.(i) ~word:header_word
  done;
  let vtables =
    Warp_ctx.load_into ctx ~label:Label.Vtable_load ~blocking:true
      ~addrs:buf ~n
  in
  for i = 0 to n - 1 do
    buf.(i) <- Vtable_space.slot_addr ~vtable:vtables.(i) ~slot
  done;
  let encoded =
    Warp_ctx.load_into ctx ~label:Label.Vfunc_load ~blocking:true
      ~addrs:buf ~n
  in
  Warp_ctx.const_load ctx ~label:Label.Const_indirect;
  for i = 0 to n - 1 do
    encoded.(i) <- Registry.decode_impl_id encoded.(i)
  done;
  branch_and_execute t env ~indirect:true ~objs encoded

let concord t env ~objs ~slot =
  let ctx = env.Env.ctx in
  let n_types = Registry.type_count t.registry in
  let impl_of_tag tag =
    let type_id = tag - 1 in
    if type_id < 0 || type_id >= n_types then
      failwith "Dispatch.concord: corrupt type tag";
    Registry.impl_of_slot (Registry.find_type t.registry type_id) ~slot
  in
  let n = Array.length objs in
  let buf = Warp_ctx.addr_scratch ctx n in
  for i = 0 to n - 1 do
    buf.(i) <- Object_model.header_addr t.om ~ptr:objs.(i) ~word:0
  done;
  let tags =
    Warp_ctx.load_into ctx ~label:Label.Concord_tag ~blocking:true
      ~addrs:buf ~n
  in
  (* The compiler-expanded switch: a compare/branch per program type, all
     executed by the warp before the taken targets serialize. *)
  Warp_ctx.compute ctx ~n:(max 1 n_types) ~label:Label.Concord_switch;
  for i = 0 to n - 1 do
    tags.(i) <- impl_of_tag tags.(i)
  done;
  branch_and_execute t env ~indirect:false ~objs tags

let coal t env ~objs ~slot =
  let ctx = env.Env.ctx in
  let table =
    match t.range_table with Some rt -> rt | None -> assert false
  in
  let encoded = Range_table.lookup_emit table ctx ~objs ~slot in
  Warp_ctx.const_load ctx ~label:Label.Const_indirect;
  branch_and_execute t env ~indirect:true ~objs (Array.map Registry.decode_impl_id encoded)

let type_pointer t env ~objs ~slot =
  let ctx = env.Env.ctx in
  (* The tag is consumed here without the MMU ever seeing it, so its
     integrity must be checked at this point, not on the load path. *)
  (match t.san with
   | Some san ->
     Repro_san.Checker.check_tagged_ptrs san ~warp:(Warp_ctx.warp_id ctx)
       ~tids:(Warp_ctx.tids ctx) ~ptrs:objs
   | None -> ());
  (* SHR to recover the tag, ADD onto vTablesStartAddr (Fig. 5b lines
     1-2); a dependent ALU chain. *)
  Warp_ctx.compute ctx ~n:2 ~blocking:true ~label:Label.Tp_dispatch;
  let n = Array.length objs in
  let buf = Warp_ctx.addr_scratch ctx n in
  for i = 0 to n - 1 do
    let vtable =
      Vtable_space.vtable_of_tag t.vtspace ~tag:(Vaddr.tag_of objs.(i))
    in
    buf.(i) <- Vtable_space.slot_addr ~vtable ~slot
  done;
  let encoded =
    Warp_ctx.load_into ctx ~label:Label.Vfunc_load ~blocking:true
      ~addrs:buf ~n
  in
  for i = 0 to n - 1 do
    encoded.(i) <- Registry.decode_impl_id encoded.(i)
  done;
  branch_and_execute t env ~indirect:true ~objs encoded

let check_objs objs =
  if Array.length objs = 0 then invalid_arg "Dispatch.vcall: no receivers"

let count t env ~objs =
  ignore objs;
  t.warp_vcalls <- t.warp_vcalls + 1;
  t.thread_vcalls <- t.thread_vcalls + Warp_ctx.n_active env.Env.ctx

let vcall t env ~objs ~slot =
  check_objs objs;
  count t env ~objs;
  match Object_model.technique t.om with
  | Technique.Cuda | Technique.Shared_oa -> cuda_style t env ~objs ~slot
  | Technique.Concord -> concord t env ~objs ~slot
  | Technique.Coal -> coal t env ~objs ~slot
  | Technique.Type_pointer _ -> type_pointer t env ~objs ~slot

(* A call site the compiler statically proved converged: COAL leaves it
   un-instrumented (the range walk would cost more than the coalesced
   vTable* load it replaces — the RAY discussion in Sec. 8.1). *)
let vcall_converged t env ~objs ~slot =
  check_objs objs;
  count t env ~objs;
  match Object_model.technique t.om with
  | Technique.Coal -> cuda_style t env ~objs ~slot
  | Technique.Cuda | Technique.Shared_oa -> cuda_style t env ~objs ~slot
  | Technique.Concord -> concord t env ~objs ~slot
  | Technique.Type_pointer _ -> type_pointer t env ~objs ~slot

let make_env t ctx =
  {
    Env.ctx;
    om = t.om;
    vcall = (fun env ~objs ~slot -> vcall t env ~objs ~slot);
    vcall_converged = (fun env ~objs ~slot -> vcall_converged t env ~objs ~slot);
  }
