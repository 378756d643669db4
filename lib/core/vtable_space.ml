module Vaddr = Repro_mem.Vaddr

type encoding =
  | Byte_offset
  | Padded_index of { padded_slots : int }

type t = {
  encoding : encoding;
  base : int;
  size_bytes : int;
  mutable cursor : int; (* next free byte offset *)
  mutable tables : int; (* vtables handed out (padded-index tags) *)
}

let arena_bytes = 1 lsl Vaddr.tag_bits (* 32 KB: what 15 bits can address *)

let create ?(encoding = Byte_offset) ~heap:_ ~space () =
  let arena =
    Repro_mem.Address_space.reserve space ~name:"vtables" ~size:arena_bytes
  in
  (match encoding with
   | Byte_offset -> ()
   | Padded_index { padded_slots } ->
     if padded_slots <= 0 then
       invalid_arg "Vtable_space.create: padded_slots must be positive");
  { encoding; base = arena.Repro_mem.Address_space.base; size_bytes = arena_bytes;
    cursor = 0; tables = 0 }

let encoding t = t.encoding

let base t = t.base

let capacity_slots t = t.size_bytes / Vaddr.word_bytes

let alloc t ~n_slots =
  if n_slots <= 0 then invalid_arg "Vtable_space.alloc: n_slots must be positive";
  let bytes =
    match t.encoding with
    | Byte_offset -> n_slots * Vaddr.word_bytes
    | Padded_index { padded_slots } ->
      if n_slots > padded_slots then
        failwith "Vtable_space.alloc: vtable larger than the padded size";
      padded_slots * Vaddr.word_bytes
  in
  if t.cursor + bytes > t.size_bytes then
    failwith "Vtable_space.alloc: 32KB vtable arena exhausted (fall back to COAL)";
  let addr = t.base + t.cursor in
  t.cursor <- t.cursor + bytes;
  t.tables <- t.tables + 1;
  addr

let tag_of_vtable t ~vtable =
  let off = vtable - t.base in
  if off < 0 || off >= t.size_bytes then
    invalid_arg "Vtable_space.tag_of_vtable: address outside the arena";
  match t.encoding with
  | Byte_offset -> off
  | Padded_index { padded_slots } -> off / (padded_slots * Vaddr.word_bytes)

let vtable_of_tag t ~tag =
  if tag < 0 || tag > Vaddr.max_tag then invalid_arg "Vtable_space.vtable_of_tag";
  match t.encoding with
  | Byte_offset -> t.base + tag
  | Padded_index { padded_slots } -> t.base + (tag * padded_slots * Vaddr.word_bytes)

let slot_addr ~vtable ~slot =
  if slot < 0 then invalid_arg "Vtable_space.slot_addr: negative slot";
  vtable + (slot * Vaddr.word_bytes)
