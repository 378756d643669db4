type geometry = {
  size_bytes : int;
  line_bytes : int;
  ways : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let geometry ~size_bytes ~line_bytes ~ways =
  if line_bytes <= 0 || line_bytes mod Repro_mem.Vaddr.sector_bytes <> 0 then
    invalid_arg "Cache.geometry: line size must be a multiple of the sector size";
  if not (is_pow2 (line_bytes / Repro_mem.Vaddr.sector_bytes)) then
    invalid_arg "Cache.geometry: sectors per line must be a power of two";
  if ways <= 0 then invalid_arg "Cache.geometry: ways must be positive";
  if size_bytes mod (line_bytes * ways) <> 0 then
    invalid_arg "Cache.geometry: size must divide into sets";
  let sets = size_bytes / (line_bytes * ways) in
  if not (is_pow2 sets) then
    invalid_arg "Cache.geometry: the number of sets must be a power of two";
  { size_bytes; line_bytes; ways }

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

type t = {
  ways : int;
  (* Sector -> (line, sector-in-line) is a shift/mask pair: geometry
     validation forces the sector count per line (and the set count) to a
     power of two, so no div/mod survives on the lookup path. *)
  sector_shift : int;
  sector_mask : int;
  set_mask : int;
  (* Per slot ([set * ways + way]): the resident line index (-1 when
     invalid) and a valid bitmask over its sectors, which is only read
     while the tag is valid (a line is installed with no sector valid). *)
  tags : int array;
  valid : int array;
  (* Per set, at [set * ways ..]: the set's slots in recency order, most
     recent first; the victim is always the last entry. An install
     takes the tail and a hit moves a valid slot, so the valid slots
     stay a prefix and invalid ways fill before any line is evicted. A fresh set lists its
     ways in descending index order, so it fills lowest way first.
     Flat arrays keep the hot path allocation-free. *)
  order : int array;
  (* The slot touched last. It is the front of its set, and only the
     next access can evict its line, so while [tags.(last_slot)] holds
     the accessed line the access needs no scan and no reordering. A
     flush invalidates the tag, and with it the shortcut. *)
  mutable last_slot : int;
}

let create geom =
  let sets = geom.size_bytes / (geom.line_bytes * geom.ways) in
  let slots = sets * geom.ways in
  let sectors_per_line = geom.line_bytes / Repro_mem.Vaddr.sector_bytes in
  let ways = geom.ways in
  {
    ways;
    sector_shift = log2 sectors_per_line;
    sector_mask = sectors_per_line - 1;
    set_mask = sets - 1;
    tags = Array.make slots (-1);
    valid = Array.make slots 0;
    order = Array.init slots (fun k -> k + ways - 1 - (2 * (k mod ways)));
    last_slot = 0;
  }

(* The slot holding [line] after this access, now at the front of its
   set: one scan in recency order, which stops at the last entry. If the
   last entry does not hold [line], it is the LRU victim and takes [line]
   with no sector valid. Every index is [base + k] with [k < ways] and
   [base] a set start, so the unsafe accesses stay inside the arrays. *)
let touch t line =
  let order = t.order and tags = t.tags in
  let base = (line land t.set_mask) * t.ways in
  let last = base + t.ways - 1 in
  let pos = ref base in
  while
    !pos < last
    && Array.unsafe_get tags (Array.unsafe_get order !pos) <> line
  do
    incr pos
  done;
  let slot = Array.unsafe_get order !pos in
  if Array.unsafe_get tags slot <> line then begin
    Array.unsafe_set tags slot line;
    Array.unsafe_set t.valid slot 0
  end;
  for k = !pos downto base + 1 do
    Array.unsafe_set order k (Array.unsafe_get order (k - 1))
  done;
  Array.unsafe_set order base slot;
  t.last_slot <- slot;
  slot

(* A sector of the line touched last (the next sector of a coalesced
   record, or the DRAM pair of a sector just installed) skips the scan. *)
let access t ~sector =
  let line = sector lsr t.sector_shift in
  let slot = t.last_slot in
  let slot =
    if Array.unsafe_get t.tags slot = line then slot else touch t line
  in
  let bit = 1 lsl (sector land t.sector_mask) in
  let v = Array.unsafe_get t.valid slot in
  if v land bit <> 0 then `Hit
  else begin
    Array.unsafe_set t.valid slot (v lor bit);
    `Miss
  end

let probe t ~sector =
  let line = sector lsr t.sector_shift in
  let base = (line land t.set_mask) * t.ways in
  let bit = 1 lsl (sector land t.sector_mask) in
  let found = ref false in
  for slot = base to base + t.ways - 1 do
    if t.tags.(slot) = line && t.valid.(slot) land bit <> 0 then found := true
  done;
  !found

(* Invalidating the tags is enough: valid bits are read only under a
   valid tag, every slot's line is then invalid (so no access takes the
   [last_slot] shortcut), and which way an invalid line fills is never
   observed. *)
let flush t = Array.fill t.tags 0 (Array.length t.tags) (-1)
