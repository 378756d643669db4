(* One set-associative LRU TLB level.

   Same shape as the data-cache model (flat tag/stamp arrays, shift/mask
   indexing, top-level scan loops so ocamlopt keeps everything in
   registers) but keyed on page identities rather than paired sectors:
   there is no fill granularity below an entry. Tag -1 marks an invalid
   way; page keys are non-negative, and an invalid way's zero stamp makes
   the LRU scan fill invalid ways first. *)

type t = {
  ways : int;
  mask : int; (* sets - 1 *)
  tags : int array;
  stamps : int array;
  mutable tick : int; (* the LRU clock *)
}

let create ~sets ~ways =
  if sets <= 0 || sets land (sets - 1) <> 0 then
    invalid_arg "Tlb.create: sets must be a positive power of two";
  if ways <= 0 then invalid_arg "Tlb.create: ways must be positive";
  {
    ways;
    mask = sets - 1;
    tags = Array.make (sets * ways) (-1);
    stamps = Array.make (sets * ways) 0;
    tick = 0;
  }

let entries t = (t.mask + 1) * t.ways

(* Loops rather than recursion, so [access] inlines them. *)
let[@inline] scan_ways (tags : int array) key base ways =
  let w = ref 0 in
  while !w < ways && Array.unsafe_get tags (base + !w) <> key do
    incr w
  done;
  if !w < ways then !w else -1

(* First way with the minimum stamp. *)
let[@inline] lru_way (stamps : int array) base ways =
  let best = ref 0 in
  for w = 1 to ways - 1 do
    if Array.unsafe_get stamps (base + w) < Array.unsafe_get stamps (base + !best)
    then best := w
  done;
  !best

let access t ~key =
  let base = (key land t.mask) * t.ways in
  let tick = t.tick + 1 in
  t.tick <- tick;
  let w = scan_ways t.tags key base t.ways in
  if w >= 0 then begin
    Array.unsafe_set t.stamps (base + w) tick;
    true
  end
  else begin
    let v = lru_way t.stamps base t.ways in
    Array.unsafe_set t.tags (base + v) key;
    Array.unsafe_set t.stamps (base + v) tick;
    false
  end

let probe t ~key =
  let base = (key land t.mask) * t.ways in
  scan_ways t.tags key base t.ways >= 0

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.stamps 0 (Array.length t.stamps) 0;
  t.tick <- 0
