(* One set-associative LRU TLB level.

   Same shape as the data-cache model (flat tag/stamp arrays, shift/mask
   indexing, top-level scan loops so ocamlopt keeps everything in
   registers) but keyed on page identities rather than paired sectors:
   there is no fill granularity below an entry. Tag -1 marks an invalid
   way; page keys are non-negative, and an invalid way's zero stamp makes
   the LRU scan fill invalid ways first. The LRU tick is a one-cell int
   array (as [Cache]'s clock is) so the fused replay loop can hoist it. *)

type t = {
  ways : int;
  mask : int; (* sets - 1 *)
  tags : int array;
  stamps : int array;
  tick : int array; (* tick.(0): the LRU clock *)
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
    tick = Array.make 1 0;
  }

let entries t = (t.mask + 1) * t.ways

let rec scan_ways tags key base w ways =
  if w >= ways then -1
  else if Array.unsafe_get tags (base + w) = key then w
  else scan_ways tags key base (w + 1) ways

let rec lru_way stamps base w ways best best_stamp =
  if w >= ways then best
  else begin
    let s = Array.unsafe_get stamps (base + w) in
    if s < best_stamp then lru_way stamps base (w + 1) ways w s
    else lru_way stamps base (w + 1) ways best best_stamp
  end

let access t ~key =
  let base = (key land t.mask) * t.ways in
  let tick = t.tick.(0) + 1 in
  t.tick.(0) <- tick;
  let w = scan_ways t.tags key base 0 t.ways in
  if w >= 0 then begin
    Array.unsafe_set t.stamps (base + w) tick;
    true
  end
  else begin
    let v =
      lru_way t.stamps base 1 t.ways 0 (Array.unsafe_get t.stamps base)
    in
    Array.unsafe_set t.tags (base + v) key;
    Array.unsafe_set t.stamps (base + v) tick;
    false
  end

let probe t ~key =
  let base = (key land t.mask) * t.ways in
  scan_ways t.tags key base 0 t.ways >= 0

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.stamps 0 (Array.length t.stamps) 0;
  t.tick.(0) <- 0

(* Raw state for the fused replay loop, which inlines [access] over it. *)
module Raw = struct
  let tags t = t.tags
  let stamps t = t.stamps
  let tick t = t.tick
  let mask t = t.mask
  let ways t = t.ways
end
