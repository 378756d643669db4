module Vaddr = Repro_mem.Vaddr

let granule_bytes = 128
let cycles_per_alloc = 2000.
let slabs = 64
let arena_bytes = 1 lsl 30

type state = {
  slab_base : int array;
  slab_cursor : int array; (* byte offset within each slab *)
  slab_bytes : int;
  mutable next_slab : int;
  mutable objects : int;
  mutable used_bytes : int;
  mutable reserved_bytes : int;
}

let create ?shadow ~space () =
  let arena = Repro_mem.Address_space.reserve space ~name:"cuda-heap" ~size:arena_bytes in
  (match shadow with
   | Some sh ->
     Repro_san.Shadow_heap.add_heap_range sh
       ~base:arena.Repro_mem.Address_space.base
       ~size:arena.Repro_mem.Address_space.size
   | None -> ());
  (* The slab step must not be a multiple of the caches' set period
     (sets * line, at most 32 KB here), or same-position objects in every
     slab would collide on one set — a power-of-two-stride artifact a
     real heap does not exhibit. Shrinking the step by an odd number of
     cache lines (231 = odd, coprime with any power-of-two set count)
     walks the bases across all sets. *)
  let stagger = 231 * 128 in
  let step = (arena.Repro_mem.Address_space.size / slabs) - stagger in
  let slab_bytes = step - stagger in
  let st =
    {
      slab_base =
        Array.init slabs (fun i -> arena.Repro_mem.Address_space.base + (i * step));
      slab_cursor = Array.make slabs 0;
      slab_bytes;
      next_slab = 0;
      objects = 0;
      used_bytes = 0;
      reserved_bytes = 0;
    }
  in
  let alloc ~typ ~size_bytes =
    if size_bytes <= 0 then invalid_arg "Cuda_alloc.alloc: size must be positive";
    let padded = Vaddr.align_up size_bytes ~alignment:granule_bytes in
    let slab = st.next_slab in
    st.next_slab <- (st.next_slab + 1) mod slabs;
    if st.slab_cursor.(slab) + padded > st.slab_bytes then
      failwith "Cuda_alloc.alloc: device heap slab exhausted";
    let addr = st.slab_base.(slab) + st.slab_cursor.(slab) in
    st.slab_cursor.(slab) <- st.slab_cursor.(slab) + padded;
    st.objects <- st.objects + 1;
    st.used_bytes <- st.used_bytes + size_bytes;
    st.reserved_bytes <- st.reserved_bytes + padded;
    (match shadow with
     | Some sh ->
       (* The granule padding stays outside the registered extent, so a
          touch there classifies as a heap hole, not part of the object. *)
       Repro_san.Shadow_heap.register sh ~base:addr ~size:size_bytes
         ~type_id:(Registry.type_id typ)
     | None -> ());
    addr
  in
  let stats () =
    {
      (Allocator.basic_stats ~objects:st.objects
         ~reserved_bytes:st.reserved_bytes ~used_bytes:st.used_bytes
         ~alloc_cycles:(float_of_int st.objects *. cycles_per_alloc))
      with
      (* All of this family's overhead is granule rounding. *)
      Allocator.padded_bytes = st.reserved_bytes - st.used_bytes;
    }
  in
  {
    Allocator.name = "cuda";
    alloc;
    free = None;
    field_addr = None;
    regions = (fun () -> []);
    (* Round-robin slab placement interleaves types at object grain, so
       no same-type span ever reaches promotion size. *)
    contiguity = (fun () -> []);
    stats;
  }
