let page_bits = 12
let page_bytes = 1 lsl page_bits

(* Each materialized page is [page_bytes] of [Bytes] holding its own
   little-endian bytes: 4 KB of host memory per simulated 4 KB page, and
   a block the GC never scans. A word is one 8-byte load. OCaml ints are
   63-bit, so a width-8 read is the low 63 bits of the word: full 64-bit
   values are restricted to non-negative ints on store — pointers, table
   entries and indices, which is everything the runtime stores at word
   width. Narrower signed data lives in byte-width fields, which
   zero-extend on read.

   This store is the innermost loop of the functional phase (one lookup
   per lane per memory instruction), so a page is found by its number
   alone: a three-level radix directory, 12 bits of the 36-bit page
   number per level, the shape of a GPU page table. A lookup is three
   array reads and no hashing. Absent levels all point at one shared
   empty level ([no_mid], [no_leaf], [no_page]), so a lookup never
   branches on absence until it reaches the page, and an untouched page
   costs nothing. A direct-mapped memo of [memo_slots] pages, indexed by
   the page number's low bits, short-circuits the directory: consecutive
   lanes on one page hit it, and so do the CUDA heap's accesses
   round-robin over its 64 slabs, which one entry could not hold. Its
   two arrays are the store's only fixed footprint beyond the directory.

   The page number indexes the directory unmasked, so a tagged address
   must never reach it: masking would alias it onto the canonical page.
   Every access, at every width, checks canonicality before the lookup. *)
let level_bits = 12
let level_size = 1 lsl level_bits
let level_mask = level_size - 1

let () = assert (page_bits + (3 * level_bits) = Vaddr.va_bits)

let no_page : Bytes.t = Bytes.empty
let no_leaf : Bytes.t array = Array.make level_size no_page
let no_mid : Bytes.t array array = Array.make level_size no_leaf

let memo_slots = 256

type t = {
  dir : Bytes.t array array array;  (* dir.(top).(mid).(leaf) = page *)
  mutable pages : int;              (* materialized pages *)
  memo_key : int array;             (* page number per slot; -1 = empty *)
  memo_data : Bytes.t array;        (* its page, valid iff the key is set *)
}

let create () =
  { dir = Array.make level_size no_mid; pages = 0;
    memo_key = Array.make memo_slots (-1);
    memo_data = Array.make memo_slots no_page }

let check_canonical addr label =
  if not (Vaddr.is_canonical addr) then
    invalid_arg ("Page_store." ^ label ^ ": tagged address reached the store")

let check_addr addr label =
  check_canonical addr label;
  if addr land (Vaddr.word_bytes - 1) <> 0 then
    invalid_arg ("Page_store." ^ label ^ ": misaligned address")

let page_of addr = addr lsr page_bits

let top_of key = key lsr (2 * level_bits)
let mid_of key = (key lsr level_bits) land level_mask
let leaf_of key = key land level_mask

(* A page's memo slot. Canonical page numbers are non-negative, so no
   key matches an empty slot's -1. *)
let[@inline] slot key = key land (memo_slots - 1)

(* The directory walk behind a memo miss. [find_page] raises
   [Not_found] on an untouched page (the zero-fill case), which loads
   turn into 0; [materialize] allocates whatever levels the page lacks.
   Both fill the key's slot, and only ever with a materialized page, so a
   memo hit can skip the directory. The top-level read stays
   bounds-checked: it is the one index a non-canonical key could push out
   of range. *)
let remember t key data =
  let s = slot key in
  Array.unsafe_set t.memo_key s key;
  Array.unsafe_set t.memo_data s data;
  data

let find_page t key =
  let data =
    Array.unsafe_get
      (Array.unsafe_get t.dir.(top_of key) (mid_of key))
      (leaf_of key)
  in
  if data == no_page then raise_notrace Not_found;
  remember t key data

let materialize t key =
  let mid =
    let m = t.dir.(top_of key) in
    if m != no_mid then m
    else begin
      let m = Array.make level_size no_leaf in
      t.dir.(top_of key) <- m;
      m
    end
  in
  let leaf =
    let l = Array.unsafe_get mid (mid_of key) in
    if l != no_leaf then l
    else begin
      let l = Array.make level_size no_page in
      Array.unsafe_set mid (mid_of key) l;
      l
    end
  in
  let data =
    let c = Array.unsafe_get leaf (leaf_of key) in
    if c != no_page then c
    else begin
      let c = Bytes.make page_bytes '\000' in
      Array.unsafe_set leaf (leaf_of key) c;
      t.pages <- t.pages + 1;
      c
    end
  in
  remember t key data

(* The [width]-byte field at [addr] in its page's [data], zero-extended
   below width 8. [read]/[write] are the only page accesses, shared by
   every width and by the scalar and batched entry points. The offset is
   masked into the page and the field is naturally aligned, so it never
   crosses the page's end. *)
let[@inline] read data addr width =
  let i = addr land (page_bytes - 1) in
  if width = 8 then Int64.to_int (Bytes.get_int64_le data i)
  else if width = 4 then Int32.to_int (Bytes.get_int32_le data i) land 0xFFFF_FFFF
  else if width = 2 then Bytes.get_uint16_le data i
  else Bytes.get_uint8 data i

let[@inline] write data addr width v =
  let i = addr land (page_bytes - 1) in
  if width = 8 then Bytes.set_int64_le data i (Int64.of_int v)
  else if width = 4 then Bytes.set_int32_le data i (Int32.of_int v)
  else if width = 2 then Bytes.set_uint16_le data i v
  else Bytes.set_uint8 data i v

(* A checked access's page lookup: the memo, then the directory. *)
let[@inline] load_field t addr width =
  let key = page_of addr in
  let s = slot key in
  if Array.unsafe_get t.memo_key s = key then
    read (Array.unsafe_get t.memo_data s) addr width
  else
    match find_page t key with
    | exception Not_found -> 0
    | data -> read data addr width

let[@inline] store_field t addr width v =
  let key = page_of addr in
  let s = slot key in
  write
    (if Array.unsafe_get t.memo_key s = key then Array.unsafe_get t.memo_data s
     else materialize t key)
    addr width v

let check_word_value v =
  if v < 0 then invalid_arg "Page_store.store: negative 64-bit stores are unsupported"

(* True iff an access's checks would fail: tag bits present
   (non-canonical, including negative) or not naturally aligned. One
   mask-and-compare on the fast path; the checks behind it then raise.
   For a byte-width access ([field_error]) they raise in the same order
   at every width: field alignment first, then canonicality under the
   word op's name (which width 8 has always reported). *)
let[@inline] needs_slow_path addr width =
  (addr land lnot Vaddr.va_mask <> 0) || (addr land (width - 1) <> 0)

let load t addr =
  if needs_slow_path addr 8 then check_addr addr "load";
  load_field t addr 8

let store t addr v =
  if needs_slow_path addr 8 then check_addr addr "store";
  check_word_value v;
  store_field t addr 8 v

let width_error label =
  invalid_arg ("Page_store." ^ label ^ ": width must be 1, 2, 4 or 8")

let[@inline] check_width width label =
  match width with 1 | 2 | 4 | 8 -> () | _ -> width_error label

let check_field_alignment addr width label =
  if addr land (width - 1) <> 0 then
    invalid_arg ("Page_store." ^ label ^ ": misaligned field")

let field_error addr width ~load =
  check_field_alignment addr width
    (if load then "load_byte_width" else "store_byte_width");
  check_canonical addr (if load then "load" else "store")

let load_byte_width t addr ~width =
  check_width width "load_byte_width";
  if needs_slow_path addr width then field_error addr width ~load:true;
  load_field t addr width

let store_byte_width t addr ~width v =
  check_width width "store_byte_width";
  if needs_slow_path addr width then field_error addr width ~load:false;
  if width = 8 then check_word_value v;
  store_field t addr width v

(* Batched lane loops for the emission path ([Warp_ctx.load_into]): one
   call per warp instruction instead of one cross-module call per lane.
   Element semantics (values, the exceptions raised and their messages,
   partial writes before one) are exactly
   [load_byte_width]/[store_byte_width]'s. The scratch/out accesses are
   unchecked: [addrs.(off .. off+n-1)] and [out/values.(0 .. n-1)] are in
   range by the caller's contract. *)
let load_batch t addrs ~off ~n ~width out =
  check_width width "load_byte_width";
  for k = 0 to n - 1 do
    let addr = Array.unsafe_get addrs (off + k) in
    if needs_slow_path addr width then field_error addr width ~load:true;
    Array.unsafe_set out k (load_field t addr width)
  done

let store_batch t addrs ~off ~n ~width values =
  check_width width "store_byte_width";
  for k = 0 to n - 1 do
    let addr = Array.unsafe_get addrs (off + k) in
    let v = Array.unsafe_get values k in
    if needs_slow_path addr width then field_error addr width ~load:false;
    if width = 8 then check_word_value v;
    store_field t addr width v
  done

let touched_pages t = t.pages

let footprint_bytes t = touched_pages t * page_bytes

let iter_words t f =
  Array.iteri
    (fun top mid ->
      if mid != no_mid then
        Array.iteri
          (fun m leaf ->
            if leaf != no_leaf then
              Array.iteri
                (fun l data ->
                  if data != no_page then begin
                    let key =
                      (((top lsl level_bits) lor m) lsl level_bits) lor l
                    in
                    let base = key * page_bytes in
                    for w = 0 to (page_bytes / Vaddr.word_bytes) - 1 do
                      let v = read data (w * Vaddr.word_bytes) 8 in
                      if v <> 0 then f (base + (w * Vaddr.word_bytes)) v
                    done
                  end)
                leaf)
          mid)
    t.dir
