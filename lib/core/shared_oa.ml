let default_chunk_objs = 4096
let cycles_per_alloc = 25.

type chunk = {
  base : int;
  mutable limit : int;        (* logical capacity end (objects fit below) *)
  mutable reserved_end : int; (* end of the page-rounded reservation *)
  mutable cursor : int;       (* next free byte *)
}

type type_state = {
  type_id : int;
  mutable chunks : chunk list; (* newest first *)
  mutable next_chunk_objs : int;
}

type state = {
  space : Repro_mem.Address_space.t;
  initial_chunk_objs : int;
  (* Indexed by type id (registry ids are small and dense); [no_type]
     marks a type not seen yet. A lookup allocates nothing. *)
  mutable by_type : type_state array;
  mutable objects : int;
  mutable used_bytes : int;
  mutable reserved_bytes : int;
}

let no_type = { type_id = -1; chunks = []; next_chunk_objs = 0 }

let grow st ~shadow ts ~size_bytes =
  let objs = ts.next_chunk_objs in
  ts.next_chunk_objs <- ts.next_chunk_objs * 2;
  let bytes = objs * size_bytes in
  let name = Printf.sprintf "oa:%d:%d" ts.type_id (List.length ts.chunks) in
  let arena = Repro_mem.Address_space.reserve st.space ~name ~size:bytes in
  let base = arena.Repro_mem.Address_space.base in
  let size = arena.Repro_mem.Address_space.size in
  st.reserved_bytes <- st.reserved_bytes + size;
  (match shadow with
   | Some sh -> Repro_san.Shadow_heap.add_heap_range sh ~base ~size
   | None -> ());
  (* The chunk's capacity is the requested object count; the page-rounding
     tail is pure fragmentation. *)
  match ts.chunks with
  | prev :: _ when prev.reserved_end = base ->
    (* The fresh reservation is flush against the previous chunk of this
       type: merge, keeping one region (Sec. 4). *)
    prev.cursor <- base;
    prev.limit <- base + bytes;
    prev.reserved_end <- base + size
  | _ ->
    ts.chunks <-
      { base; limit = base + bytes; reserved_end = base + size; cursor = base }
      :: ts.chunks

let create ?shadow ?(chunk_objs = default_chunk_objs) ~space () =
  if chunk_objs <= 0 then invalid_arg "Shared_oa.create: chunk_objs must be positive";
  let st =
    {
      space;
      initial_chunk_objs = chunk_objs;
      by_type = [||];
      objects = 0;
      used_bytes = 0;
      reserved_bytes = 0;
    }
  in
  let state_of typ =
    let id = Registry.type_id typ in
    if id < Array.length st.by_type && st.by_type.(id) != no_type then
      st.by_type.(id)
    else begin
      if id >= Array.length st.by_type then begin
        let grown = Array.make (max 16 (2 * id)) no_type in
        Array.blit st.by_type 0 grown 0 (Array.length st.by_type);
        st.by_type <- grown
      end;
      let ts = { type_id = id; chunks = []; next_chunk_objs = st.initial_chunk_objs } in
      st.by_type.(id) <- ts;
      ts
    end
  in
  let alloc ~typ ~size_bytes =
    if size_bytes <= 0 then invalid_arg "Shared_oa.alloc: size must be positive";
    let ts = state_of typ in
    (match ts.chunks with
     | head :: _ when head.cursor + size_bytes <= head.limit -> ()
     | _ -> grow st ~shadow ts ~size_bytes);
    let head = List.hd ts.chunks in
    let addr = head.cursor in
    head.cursor <- head.cursor + size_bytes;
    st.objects <- st.objects + 1;
    st.used_bytes <- st.used_bytes + size_bytes;
    (match shadow with
     | Some sh ->
       Repro_san.Shadow_heap.register sh ~base:addr ~size:size_bytes
         ~type_id:ts.type_id
     | None -> ());
    addr
  in
  (* Every chunk as a region ending at [limit chunk], sorted by base.
     Unseen type ids hold [no_type], which has no chunks. *)
  let chunk_regions limit =
    Array.fold_left
      (fun acc ts ->
        List.fold_left
          (fun acc chunk ->
            Region.make ~base:chunk.base ~limit:(limit chunk) ~type_id:ts.type_id
            :: acc)
          acc ts.chunks)
      [] st.by_type
    |> List.sort Region.compare_base
  in
  let regions () = chunk_regions (fun chunk -> chunk.limit) in
  (* Reservation extents (chunk base to page-rounded end): unlike
     [regions] they tile the oa:* arenas exactly, which is what the
     translation model needs to promote without partial-page overlap.
     [grow] already merges flush-adjacent reservations of one type. *)
  let contiguity () = chunk_regions (fun chunk -> chunk.reserved_end) in
  let stats () =
    Allocator.basic_stats ~objects:st.objects ~reserved_bytes:st.reserved_bytes
      ~used_bytes:st.used_bytes
      ~alloc_cycles:(float_of_int st.objects *. cycles_per_alloc)
  in
  {
    Allocator.name = "shared-oa";
    alloc;
    free = None;
    field_addr = None;
    regions;
    contiguity;
    stats;
  }
