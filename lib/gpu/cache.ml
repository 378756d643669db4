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
  geom : geometry;
  ways : int;
  (* Sector -> (line, sector-in-line) is a shift/mask pair: geometry
     validation forces the sector count per line (and the set count) to a
     power of two, so no div/mod survives on the lookup path. *)
  sector_shift : int;
  sector_mask : int;
  set_mask : int;
  (* Per (set, way): the resident line index (-1 when invalid), a valid
     bitmask over its sectors, and an LRU stamp. Flat arrays indexed by
     [set * ways + way] keep this allocation-free on the hot path. *)
  tags : int array;
  valid : int array;
  stamps : int array;
  mutable clock : int;
}

let create geom =
  let sets = geom.size_bytes / (geom.line_bytes * geom.ways) in
  let slots = sets * geom.ways in
  let sectors_per_line = geom.line_bytes / Repro_mem.Vaddr.sector_bytes in
  {
    geom;
    ways = geom.ways;
    sector_shift = log2 sectors_per_line;
    sector_mask = sectors_per_line - 1;
    set_mask = sets - 1;
    tags = Array.make slots (-1);
    valid = Array.make slots 0;
    stamps = Array.make slots 0;
    clock = 0;
  }

let geometry_of t = t.geom

(* Slot holding [line] in the set starting at [base]; -1 when absent.
   Returning an int rather than an option keeps the lookup
   allocation-free, and a loop (not a local [let rec], which would
   allocate a closure per lookup) lets [access] inline the scan. *)
let[@inline] scan_ways (tags : int array) base ways line =
  let slot = ref (-1) and way = ref 0 in
  while !slot < 0 && !way < ways do
    if Array.unsafe_get tags (base + !way) = line then slot := base + !way
    else incr way
  done;
  !slot

(* The set's LRU slot: the minimum stamp, first-found on ties (invalid
   ways carry stamp 0, so they fill before any eviction). *)
let[@inline] lru_slot (stamps : int array) base ways =
  let best = ref base in
  for k = base + 1 to base + ways - 1 do
    if Array.unsafe_get stamps k < Array.unsafe_get stamps !best then best := k
  done;
  !best

(* Every index below is [base + way] with [way < ways] and [base] a set
   start, so the unsafe accesses stay inside the slot arrays. *)
let access t ~sector =
  let line = sector lsr t.sector_shift in
  let ways = t.ways in
  let base = (line land t.set_mask) * ways in
  let now = t.clock + 1 in
  t.clock <- now;
  let bit = 1 lsl (sector land t.sector_mask) in
  let slot = scan_ways t.tags base ways line in
  if slot >= 0 then begin
    Array.unsafe_set t.stamps slot now;
    let v = Array.unsafe_get t.valid slot in
    if v land bit <> 0 then `Hit
    else begin
      Array.unsafe_set t.valid slot (v lor bit);
      `Miss
    end
  end
  else begin
    let slot = lru_slot t.stamps base ways in
    Array.unsafe_set t.tags slot line;
    Array.unsafe_set t.valid slot bit;
    Array.unsafe_set t.stamps slot now;
    `Miss
  end

let probe t ~sector =
  let line = sector lsr t.sector_shift in
  let slot = scan_ways t.tags ((line land t.set_mask) * t.ways) t.ways line in
  slot >= 0 && t.valid.(slot) land (1 lsl (sector land t.sector_mask)) <> 0

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.valid 0 (Array.length t.valid) 0;
  Array.fill t.stamps 0 (Array.length t.stamps) 0
