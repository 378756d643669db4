(* One set-associative LRU TLB level.

   The same LRU discipline as the data-cache model ([Repro_gpu.Cache]):
   flat per-slot tags, and per set the slots in recency order, most
   recent first, so one scan finds a hit where it most likely sits and
   the victim is the set's last entry. Keyed on page identities rather
   than paired sectors: there is no fill granularity below an entry. Tag
   -1 marks an invalid way (page keys are non-negative). Fills take the
   tail, so invalid ways fill before any eviction; a fresh set lists its
   ways in descending index order, so it fills lowest way first. *)

type t = {
  ways : int;
  mask : int; (* sets - 1 *)
  tags : int array;
  order : int array; (* per set, its slots most recent first *)
}

let create ~sets ~ways =
  if sets <= 0 || sets land (sets - 1) <> 0 then
    invalid_arg "Tlb.create: sets must be a positive power of two";
  if ways <= 0 then invalid_arg "Tlb.create: ways must be positive";
  {
    ways;
    mask = sets - 1;
    tags = Array.make (sets * ways) (-1);
    order =
      Array.init (sets * ways) (fun k -> k + ways - 1 - (2 * (k mod ways)));
  }

let entries t = (t.mask + 1) * t.ways

(* One scan in recency order, stopping at the last entry; the slot found
   (or the victim there, which takes [key]) moves to the front. Every
   index is [base + k] with [k < ways], inside the arrays. *)
let access t ~key =
  let order = t.order and tags = t.tags in
  let base = (key land t.mask) * t.ways in
  let last = base + t.ways - 1 in
  let pos = ref base in
  while
    !pos < last && Array.unsafe_get tags (Array.unsafe_get order !pos) <> key
  do
    incr pos
  done;
  let slot = Array.unsafe_get order !pos in
  let hit = Array.unsafe_get tags slot = key in
  if not hit then Array.unsafe_set tags slot key;
  for k = !pos downto base + 1 do
    Array.unsafe_set order k (Array.unsafe_get order (k - 1))
  done;
  Array.unsafe_set order base slot;
  hit

let probe t ~key =
  let base = (key land t.mask) * t.ways in
  let found = ref false in
  for slot = base to base + t.ways - 1 do
    if t.tags.(slot) = key then found := true
  done;
  !found

(* Invalidating the tags is enough: which way an invalid key fills is
   never observed. *)
let flush t = Array.fill t.tags 0 (Array.length t.tags) (-1)
