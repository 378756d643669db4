module Vaddr = Repro_mem.Vaddr

let default_block_slots = 64
let meta_bytes = 64
let cycles_per_alloc = 40.
let cycles_per_free = 12.
let cycles_per_scan_word = 4.
let bits_per_word = 32

type block = {
  bbase : int;              (* reservation base; data starts at bbase+meta *)
  reserved : int;           (* page-rounded reservation size *)
  n_slots : int;
  obj_bytes : int;          (* canonical AoS image size (headers + fields) *)
  hdr_words : int;
  type_id : int;
  bitmap : int array;       (* 32 occupancy bits per element *)
  mutable bused : int;      (* live slots *)
}

type type_state = {
  type_id : int;
  mutable chained : int;            (* blocks ever chained for this type *)
  mutable open_blocks : block list; (* blocks with a free slot, newest first *)
}

type state = {
  space : Repro_mem.Address_space.t;
  shadow : Repro_san.Shadow_heap.t option;
  block_slots : int;
  hdr_words : int;
  (* Indexed by type id (registry ids are small and dense); [no_type]
     marks a type not seen yet. A lookup allocates nothing. *)
  mutable by_type : type_state array;
  (* Every block ever chained, in creation order, in [blocks.(0 ..
     n_blocks - 1)]. Creation order is ascending [bbase] order:
     [Address_space.reserve] bumps one cursor upward and never hands an
     address back, so each block's reservation lies above every earlier
     one (other arenas reserved in between only widen the gaps). The
     index is therefore sorted by construction and only ever appended
     to. A plain array rather than a [Repro_util.Vec]: every lookup
     cache miss binary-searches it, and [Vec.get]'s out-of-line checked
     read doubled the cost of a miss. *)
  mutable blocks : block array;
  mutable n_blocks : int;
  mutable last_block : block;       (* one-entry lookup cache *)
  mutable objects : int;
  mutable live : int;
  mutable used_bytes : int;
  mutable reserved_bytes : int;
  mutable padded_bytes : int;
  (* Modelled costs as integer counts, priced in [stats]: bitmap words
     scanned by every allocation so far (frees are [objects - live]). *)
  mutable scanned_words : int;
}

type block_summary = {
  n_blocks : int;
  full_blocks : int;
  empty_blocks : int;
  total_slots : int;
  live_slots : int;
  bitmap_live_slots : int;
}

let hdr_bytes st = st.hdr_words * Vaddr.word_bytes
let data_bytes (b : block) = b.obj_bytes * b.n_slots

let slot_base (b : block) slot =
  b.bbase + meta_bytes + (slot * Vaddr.word_bytes)

(* Storage address of byte [off] of the canonical image of [slot]:
   header word w lives in the w-th 8-byte array, field element k in the
   k-th 4-byte array, all arrays striped across the block's slots. *)
let addr_in_block (b : block) ~slot ~off =
  let hdr = b.hdr_words * Vaddr.word_bytes in
  if off < hdr then
    b.bbase + meta_bytes
    + (off / Vaddr.word_bytes * Vaddr.word_bytes * b.n_slots)
    + (slot * Vaddr.word_bytes)
    + (off mod Vaddr.word_bytes)
  else begin
    let foff = off - hdr in
    let fb = Object_model.field_bytes in
    b.bbase + meta_bytes + (hdr * b.n_slots)
    + (foff / fb * fb * b.n_slots)
    + (slot * fb)
    + (foff mod fb)
  end

(* Sentinel for "no block": its empty reservation contains no address,
   so it also seeds the lookup cache. *)
let no_block =
  {
    bbase = 0;
    reserved = 0;
    n_slots = 0;
    obj_bytes = 0;
    hdr_words = 0;
    type_id = -1;
    bitmap = [||];
    bused = 0;
  }

let no_type = { type_id = -1; chained = 0; open_blocks = [] }

(* Block whose reservation contains the canonical address [a], or
   [no_block]. Allocates nothing: a cache check, then a binary search
   for the last block based at or below [a]. *)
let find_block st a =
  let b = st.last_block in
  if a >= b.bbase && a < b.bbase + b.reserved then b
  else begin
    let blocks = st.blocks in
    let lo = ref 0 and hi = ref st.n_blocks in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if blocks.(mid).bbase <= a then lo := mid + 1 else hi := mid
    done;
    if !lo = 0 then no_block
    else begin
      let b = blocks.(!lo - 1) in
      if a < b.bbase + b.reserved then begin
        st.last_block <- b;
        b
      end
      else no_block
    end
  end

let slot_of_exn (b : block) a ~what =
  let off = a - b.bbase - meta_bytes in
  if off < 0 || off mod Vaddr.word_bytes <> 0 || off / Vaddr.word_bytes >= b.n_slots
  then invalid_arg (Printf.sprintf "Dyna_soa.%s: not an object base" what);
  off / Vaddr.word_bytes

let full_word = (1 lsl bits_per_word) - 1

let make_bitmap n_slots =
  let words = (n_slots + bits_per_word - 1) / bits_per_word in
  let bm = Array.make words 0 in
  (* Pre-set the padding bits past [n_slots] so the scan never yields an
     out-of-range slot. *)
  let tail = n_slots mod bits_per_word in
  if tail <> 0 then bm.(words - 1) <- full_word lxor ((1 lsl tail) - 1);
  bm

(* Lowest clear bit, DynaSOAr-style: a warp scans the bitmap one word per
   step until a word has a free bit. The words examined (the modelled
   scan cost) are the returned slot's word and every word before it. *)
let find_free_slot (b : block) =
  let bitmap = b.bitmap in
  let w = ref 0 in
  while !w < Array.length bitmap && bitmap.(!w) = full_word do incr w done;
  if !w >= Array.length bitmap then
    invalid_arg "Dyna_soa: scan of non-full block failed";
  let free = lnot bitmap.(!w) land full_word in
  let bit = ref 0 in
  while free land (1 lsl !bit) = 0 do incr bit done;
  (!w * bits_per_word) + !bit

(* First block of [size] bytes per object in an open-block list. *)
let rec find_open size = function
  | [] -> no_block
  | b :: rest -> if b.obj_bytes = size then b else find_open size rest

(* [blocks] without [b] (a block is open at most once). *)
let rec drop_block b = function
  | [] -> []
  | x :: rest -> if x == b then rest else x :: drop_block b rest

let register_shadow st b slot =
  match st.shadow with
  | None -> ()
  | Some sh ->
    (* One record (one program-order index) per object, made of the
       scattered per-array element extents; the first part is header
       word 0, whose storage address is the canonical base. *)
    let hdr = hdr_bytes st in
    let fields = (b.obj_bytes - hdr) / Object_model.field_bytes in
    let parts = ref [] in
    for k = fields - 1 downto 0 do
      parts :=
        ( addr_in_block b ~slot ~off:(hdr + (k * Object_model.field_bytes)),
          Object_model.field_bytes )
        :: !parts
    done;
    for w = st.hdr_words - 1 downto 0 do
      parts :=
        (addr_in_block b ~slot ~off:(w * Vaddr.word_bytes), Vaddr.word_bytes)
        :: !parts
    done;
    Repro_san.Shadow_heap.register_parts sh ~parts:!parts ~type_id:b.type_id

let grow st ts ~obj_bytes =
  let n = st.block_slots in
  (* One block per [block_slots] objects: [^] rather than [Printf],
     which would allocate several times more per block. *)
  let name =
    "dyna:" ^ string_of_int ts.type_id ^ ":" ^ string_of_int ts.chained
  in
  let arena =
    Repro_mem.Address_space.reserve st.space ~name
      ~size:(meta_bytes + (obj_bytes * n))
  in
  let bbase = arena.Repro_mem.Address_space.base in
  let size = arena.Repro_mem.Address_space.size in
  st.reserved_bytes <- st.reserved_bytes + size;
  st.padded_bytes <- st.padded_bytes + (size - (obj_bytes * n));
  (match st.shadow with
   | Some sh -> Repro_san.Shadow_heap.add_heap_range sh ~base:bbase ~size
   | None -> ());
  let b =
    {
      bbase;
      reserved = size;
      n_slots = n;
      obj_bytes;
      hdr_words = st.hdr_words;
      type_id = ts.type_id;
      bitmap = make_bitmap n;
      bused = 0;
    }
  in
  ts.chained <- ts.chained + 1;
  ts.open_blocks <- b :: ts.open_blocks;
  if st.n_blocks = Array.length st.blocks then begin
    let grown = Array.make (max 16 (2 * st.n_blocks)) no_block in
    Array.blit st.blocks 0 grown 0 st.n_blocks;
    st.blocks <- grown
  end;
  st.blocks.(st.n_blocks) <- b;
  st.n_blocks <- st.n_blocks + 1;
  b

let create_with_summary ?shadow ?(block_slots = default_block_slots)
    ~header_words ~space () =
  if block_slots <= 0 then
    invalid_arg "Dyna_soa.create: block_slots must be positive";
  if header_words <= 0 then
    invalid_arg "Dyna_soa.create: header_words must be positive";
  let st =
    {
      space;
      shadow;
      block_slots;
      hdr_words = header_words;
      by_type = [||];
      blocks = [||];
      n_blocks = 0;
      last_block = no_block;
      objects = 0;
      live = 0;
      used_bytes = 0;
      reserved_bytes = 0;
      padded_bytes = 0;
      scanned_words = 0;
    }
  in
  let state_of type_id =
    if type_id < Array.length st.by_type && st.by_type.(type_id) != no_type then
      st.by_type.(type_id)
    else begin
      if type_id >= Array.length st.by_type then begin
        let grown = Array.make (max 16 (2 * type_id)) no_type in
        Array.blit st.by_type 0 grown 0 (Array.length st.by_type);
        st.by_type <- grown
      end;
      let ts = { type_id; chained = 0; open_blocks = [] } in
      st.by_type.(type_id) <- ts;
      ts
    end
  in
  let alloc ~typ ~size_bytes =
    if size_bytes <= 0 then invalid_arg "Dyna_soa.alloc: size must be positive";
    let hdr = hdr_bytes st in
    if size_bytes < hdr || (size_bytes - hdr) mod Object_model.field_bytes <> 0
    then
      invalid_arg
        (Printf.sprintf
           "Dyna_soa.alloc: size %dB is not %d header words plus %dB fields"
           size_bytes st.hdr_words Object_model.field_bytes);
    let ts = state_of (Registry.type_id typ) in
    let b =
      let b = find_open size_bytes ts.open_blocks in
      if b == no_block then grow st ts ~obj_bytes:size_bytes else b
    in
    let slot = find_free_slot b in
    b.bitmap.(slot / bits_per_word) <-
      b.bitmap.(slot / bits_per_word) lor (1 lsl (slot mod bits_per_word));
    b.bused <- b.bused + 1;
    if b.bused = b.n_slots then
      ts.open_blocks <- drop_block b ts.open_blocks;
    st.objects <- st.objects + 1;
    st.live <- st.live + 1;
    st.used_bytes <- st.used_bytes + size_bytes;
    st.scanned_words <- st.scanned_words + (slot / bits_per_word) + 1;
    register_shadow st b slot;
    slot_base b slot
  in
  let free ~ptr =
    let a = Vaddr.strip ptr in
    let b = find_block st a in
    if b == no_block then
      invalid_arg "Dyna_soa.free: address outside every block"
    else begin
      let slot = slot_of_exn b a ~what:"free" in
      let w = slot / bits_per_word and bit = 1 lsl (slot mod bits_per_word) in
      if b.bitmap.(w) land bit = 0 then
        invalid_arg "Dyna_soa.free: slot is already free (double free)";
      b.bitmap.(w) <- b.bitmap.(w) land lnot bit;
      let was_full = b.bused = b.n_slots in
      b.bused <- b.bused - 1;
      if was_full then begin
        let ts = state_of b.type_id in
        ts.open_blocks <- b :: ts.open_blocks
      end;
      st.live <- st.live - 1;
      st.used_bytes <- st.used_bytes - b.obj_bytes
    end
  in
  let field_addr ~obj ~off =
    let b = find_block st obj in
    if b == no_block then obj + off
    else addr_in_block b ~slot:(slot_of_exn b obj ~what:"field_addr") ~off
  in
  let all_blocks () = Array.to_list (Array.sub st.blocks 0 st.n_blocks) in
  let regions () =
    List.map
      (fun b ->
        Region.make ~base:b.bbase
          ~limit:(b.bbase + meta_bytes + data_bytes b)
          ~type_id:b.type_id)
      (all_blocks ())
  in
  (* Reservation extents merged across flush-adjacent same-type blocks:
     a chain of blocks reserved back-to-back reports one span, which is
     what lets the translation model promote it to large pages. *)
  let contiguity () =
    let spans = ref [] in
    List.iter
      (fun b ->
        let limit = b.bbase + b.reserved in
        match !spans with
        | (base, prev_limit, tid) :: rest
          when prev_limit = b.bbase && tid = b.type_id ->
          spans := (base, limit, tid) :: rest
        | _ -> spans := (b.bbase, limit, b.type_id) :: !spans)
      (all_blocks ());
    List.rev_map
      (fun (base, limit, type_id) -> Region.make ~base ~limit ~type_id)
      !spans
  in
  (* Every per-operation cost is a whole number of cycles, so these
     products equal the running float sums they replace bit for bit. *)
  let stats () =
    let scan = cycles_per_scan_word *. float_of_int st.scanned_words in
    {
      Allocator.objects = st.objects;
      live_objects = st.live;
      reserved_bytes = st.reserved_bytes;
      used_bytes = st.used_bytes;
      padded_bytes = st.padded_bytes;
      alloc_cycles = (float_of_int st.objects *. cycles_per_alloc) +. scan;
      free_cycles = float_of_int (st.objects - st.live) *. cycles_per_free;
      bitmap_scan_cycles = scan;
    }
  in
  let summary () =
    let popcount bm =
      Array.fold_left
        (fun acc w ->
          let rec go acc w = if w = 0 then acc else go (acc + (w land 1)) (w lsr 1) in
          go acc w)
        0 bm
    in
    List.fold_left
      (fun acc b ->
        let pad = (Array.length b.bitmap * bits_per_word) - b.n_slots in
        {
          n_blocks = acc.n_blocks + 1;
          full_blocks = acc.full_blocks + (if b.bused = b.n_slots then 1 else 0);
          empty_blocks = acc.empty_blocks + (if b.bused = 0 then 1 else 0);
          total_slots = acc.total_slots + b.n_slots;
          live_slots = acc.live_slots + b.bused;
          bitmap_live_slots = acc.bitmap_live_slots + popcount b.bitmap - pad;
        })
      {
        n_blocks = 0;
        full_blocks = 0;
        empty_blocks = 0;
        total_slots = 0;
        live_slots = 0;
        bitmap_live_slots = 0;
      }
      (all_blocks ())
  in
  ( {
      Allocator.name = "dyna";
      alloc;
      free = Some free;
      field_addr = Some field_addr;
      regions;
      contiguity;
      stats;
    },
    summary )

let create ?shadow ?block_slots ~header_words ~space () =
  fst (create_with_summary ?shadow ?block_slots ~header_words ~space ())
