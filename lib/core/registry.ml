module Vec = Repro_util.Vec
module Page_store = Repro_mem.Page_store
module Vaddr = Repro_mem.Vaddr

type impl = Env.t -> int array -> unit

type typ = {
  id : int;
  name : string;
  field_words : int;
  parent : typ option;
  slots : int array;
  mutable gpu_vtable_addr : int; (* -1 until materialized *)
  mutable cpu_vtable_addr : int;
}

type t = {
  heap : Page_store.t;
  types : typ Vec.t;
  impls : impl Vec.t;
  mutable is_materialized : bool;
}

let create ~heap =
  {
    heap;
    types = Vec.create ();
    impls = Vec.create ();
    is_materialized = false;
  }

let register_impl t ~name:_ impl =
  let id = Vec.length t.impls in
  Vec.push t.impls impl;
  id

let impl_count t = Vec.length t.impls

let define_type t ~name ~field_words ?parent ~slots () =
  if t.is_materialized then
    failwith "Registry.define_type: registry already materialized";
  if field_words < 0 then invalid_arg "Registry.define_type: negative field_words";
  Array.iter
    (fun impl_id ->
      if impl_id < 0 || impl_id >= impl_count t then
        invalid_arg "Registry.define_type: unknown implementation id")
    slots;
  let typ =
    {
      id = Vec.length t.types;
      name;
      field_words;
      parent;
      slots = Array.copy slots;
      gpu_vtable_addr = -1;
      cpu_vtable_addr = -1;
    }
  in
  Vec.push t.types typ;
  typ

let types t = List.of_seq (Array.to_seq (Vec.to_array t.types))

let type_count t = Vec.length t.types

let find_type t id =
  if id < 0 || id >= type_count t then invalid_arg "Registry.find_type: unknown type id";
  Vec.get t.types id

let encode_impl_id id = id + 1

let decode_impl_id v =
  if v <= 0 then failwith "Registry.decode_impl_id: uninitialized vtable slot";
  v - 1

let materialize t ~vtspace ~space =
  if not t.is_materialized then begin
    let total_cpu_bytes =
      Vec.fold_left
        (fun acc typ -> acc + max 1 (Array.length typ.slots) * Vaddr.word_bytes)
        0 t.types
    in
    let cpu_arena =
      Repro_mem.Address_space.reserve space ~name:"cpu-vtables"
        ~size:(max Page_store.page_bytes total_cpu_bytes)
    in
    let cpu_cursor = ref cpu_arena.Repro_mem.Address_space.base in
    Vec.iter
      (fun typ ->
        let n_slots = max 1 (Array.length typ.slots) in
        typ.gpu_vtable_addr <- Vtable_space.alloc vtspace ~n_slots;
        typ.cpu_vtable_addr <- !cpu_cursor;
        cpu_cursor := !cpu_cursor + (n_slots * Vaddr.word_bytes);
        Array.iteri
          (fun slot impl_id ->
            let gpu_slot = Vtable_space.slot_addr ~vtable:typ.gpu_vtable_addr ~slot in
            Page_store.store t.heap gpu_slot (encode_impl_id impl_id);
            let cpu_slot = Vtable_space.slot_addr ~vtable:typ.cpu_vtable_addr ~slot in
            Page_store.store t.heap cpu_slot (encode_impl_id impl_id))
          typ.slots)
      t.types;
    t.is_materialized <- true
  end

let materialized t = t.is_materialized

let type_id typ = typ.id
let type_name typ = typ.name
let field_words typ = typ.field_words
let n_slots typ = Array.length typ.slots
let parent typ = typ.parent

let impl_of_slot typ ~slot =
  if slot < 0 || slot >= Array.length typ.slots then
    invalid_arg "Registry.impl_of_slot: slot out of range";
  typ.slots.(slot)

let require_materialized typ label =
  if typ.gpu_vtable_addr < 0 then
    failwith ("Registry." ^ label ^ ": registry not materialized yet")

let gpu_vtable typ =
  require_materialized typ "gpu_vtable";
  typ.gpu_vtable_addr

let cpu_vtable typ =
  require_materialized typ "cpu_vtable";
  typ.cpu_vtable_addr

let impl t id =
  if id < 0 || id >= impl_count t then invalid_arg "Registry.impl: unknown id";
  Vec.get t.impls id

let total_vfunc_slots t = Vec.fold_left (fun acc typ -> acc + Array.length typ.slots) 0 t.types
