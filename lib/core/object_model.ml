module Vaddr = Repro_mem.Vaddr
module Warp_ctx = Repro_gpu.Warp_ctx
module Label = Repro_gpu.Label

type t = {
  technique : Technique.t;
  header_words : int;
  strip_in_software : bool;
  (* Register reuse: consecutive member references through the same
     per-lane pointer array reuse the stripped register, as compiled code
     would after CSE; only the first reference pays the mask. *)
  mutable last_stripped : int array;
  (* Allocator layout hook: maps (canonical object base, byte offset into
     the canonical AoS image) to the storage address. None = identity. *)
  mutable remap : (obj:int -> off:int -> int) option;
  (* Field accesses compute their per-lane addresses into [scratch] and
     emit through [Warp_ctx.load_into]/[store_from], so only the returned
     value array is allocated. *)
  mutable scratch : int array;
}

let create technique =
  let header_words =
    match technique with
    | Technique.Cuda | Technique.Concord -> 1
    | Technique.Shared_oa | Technique.Coal -> 2
    | Technique.Type_pointer { on_cuda_alloc; _ } -> if on_cuda_alloc then 1 else 2
  in
  {
    technique;
    header_words;
    strip_in_software = Technique.strips_in_software technique;
    last_stripped = [||];
    remap = None;
    scratch = [||];
  }

let set_addr_hook t hook = t.remap <- hook

let technique t = t.technique

let header_words t = t.header_words

let field_bytes = 4

let object_bytes t ~field_words =
  (t.header_words * Vaddr.word_bytes) + (field_words * field_bytes)

let gpu_vtable_slot t =
  match t.technique with
  | Technique.Concord -> None
  | Technique.Cuda -> Some 0
  | Technique.Shared_oa | Technique.Coal -> Some 1
  | Technique.Type_pointer { on_cuda_alloc; _ } -> Some (if on_cuda_alloc then 0 else 1)

let resolve t ~ptr ~off =
  let base = Vaddr.strip ptr in
  match t.remap with None -> base + off | Some f -> f ~obj:base ~off

let field_addr t ~ptr ~field =
  if field < 0 then invalid_arg "Object_model.field_addr: negative field";
  resolve t ~ptr ~off:((t.header_words * Vaddr.word_bytes) + (field * field_bytes))

let header_addr t ~ptr ~word =
  if word < 0 || word >= t.header_words then
    invalid_arg "Object_model.header_addr: word out of range";
  resolve t ~ptr ~off:(word * Vaddr.word_bytes)

let charge_strip t ctx objs =
  if t.strip_in_software && t.last_stripped != objs then begin
    t.last_stripped <- objs;
    Warp_ctx.compute ctx ~label:Label.Tp_strip
  end

(* Fields are signed 32-bit; the store truncates, the load sign-extends. *)
let sign_extend v = if v land 0x8000_0000 <> 0 then v - (1 lsl 32) else v

(* Per-lane field addresses into the reusable scratch buffer; returns the
   lane count. The bounds check and the offset arithmetic are hoisted out
   of the per-lane loop. *)
let fill_field_addrs t ~objs ~field =
  if field < 0 then invalid_arg "Object_model.field_addr: negative field";
  let n = Array.length objs in
  if Array.length t.scratch < n then t.scratch <- Array.make (max 32 n) 0;
  let off = (t.header_words * Vaddr.word_bytes) + (field * field_bytes) in
  let scratch = t.scratch in
  (match t.remap with
   | None -> for i = 0 to n - 1 do scratch.(i) <- Vaddr.strip objs.(i) + off done
   | Some f ->
     for i = 0 to n - 1 do scratch.(i) <- f ~obj:(Vaddr.strip objs.(i)) ~off done);
  n

let field_load t ctx ~objs ~field =
  charge_strip t ctx objs;
  let n = fill_field_addrs t ~objs ~field in
  let out =
    Warp_ctx.load_into ~width:field_bytes ctx ~label:Label.Body
      ~blocking:true ~addrs:t.scratch ~n
  in
  for i = 0 to n - 1 do out.(i) <- sign_extend out.(i) done;
  out

let field_store t ctx ~objs ~field values =
  charge_strip t ctx objs;
  let n = fill_field_addrs t ~objs ~field in
  Warp_ctx.store_from ~width:field_bytes ctx ~label:Label.Body
    ~addrs:t.scratch ~n values

let field_load_host t heap ~ptr ~field =
  sign_extend
    (Repro_mem.Page_store.load_byte_width heap (field_addr t ~ptr ~field)
       ~width:field_bytes)

let field_store_host t heap ~ptr ~field v =
  Repro_mem.Page_store.store_byte_width heap (field_addr t ~ptr ~field)
    ~width:field_bytes v
