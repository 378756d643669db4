(* Span-compressed per-process page table.

   The virtual layout this maps is [Address_space]'s: a bump allocator
   handing out page-rounded reservations, so the mapped address space is
   a short sorted list of disjoint intervals. Rather than materialize
   radix-tree nodes, the table stores one *span* per maximal interval
   that shares a page size and owner; a span at index [i] covering
   sectors [sbase.(i), slimit.(i)) is backed by pages of
   [1 lsl shift.(i)] sectors counted from the span base. Page identity
   (the TLB tag) is [(i lsl span_key_shift) lor page_offset] — unique by
   construction, and deliberately span-relative: a Mosaic-promoted span
   behaves as if the allocator had aligned its backing frames, without
   this model having to share a large frame across two owners.

   Physical placement is modelled as a bump allocation of frames per
   span, which is all the sanitizer's ownership validation needs: a
   translation either lands inside its span's frame range or the table
   was built wrong. *)

module Vaddr = Repro_mem.Vaddr

let small_page_bytes = 4096
let large_page_bytes = 1 lsl 21 (* 2 MB *)

(* log2 (page_bytes / sector_bytes). *)
let small_shift = 7
let large_shift = 16

(* Radix-walk depth on a TLB miss: the classic 4-level walk for 4 KB
   pages; 2 MB pages are leaves one level up. *)
let small_levels = 4
let large_levels = 3
let max_levels = 4

let default_promote_min_bytes = 65536

(* Page offsets within a span stay below 2^span_key_shift (a span would
   need 2^40 sectors — 32 TB — to overflow), so span index and offset
   pack into one positive OCaml int. *)
let span_key_shift = 40

type t = {
  sbase : int array;  (* first sector of each span, sorted ascending *)
  slimit : int array; (* one past the last sector *)
  shift : int array;  (* log2 sectors-per-page: small_shift or large_shift *)
  levels : int array; (* walk depth charged on a full miss *)
  owner : int array;  (* promoted spans: owning type_id; -1 otherwise *)
  phys : int array;   (* modelled physical base address (bytes) *)
  last : int array;  (* last.(0): one-entry lookup cache *)
  total_pages : int;
  large_spans : int;
}

type page = {
  span : int;
  page_bytes : int;
  levels : int;
  owner : int;
  phys_addr : int;
}

(* Sorted disjoint byte intervals, adjacent same-owner ones merged. *)
let merge_adjacent intervals =
  let sorted =
    List.sort (fun (a, _, _) (b, _, _) -> compare a b) intervals
  in
  let rec go acc = function
    | [] -> List.rev acc
    | (base, limit, owner) :: rest -> (
      match acc with
      | (pbase, plimit, powner) :: tl
        when powner = owner && plimit = base ->
        go ((pbase, limit, powner) :: tl) rest
      | _ -> go ((base, limit, owner) :: acc) rest)
  in
  go [] sorted

(* [interval] minus the (sorted, disjoint) [cuts]; clamps defensively so
   a cut straddling the interval edge cannot produce a negative gap. *)
let subtract (base, limit) cuts =
  let rec go cursor acc = function
    | [] -> if cursor < limit then (cursor, limit) :: acc else acc
    | (cb, cl, _) :: rest ->
      if cl <= cursor then go cursor acc rest
      else if cb >= limit then go limit acc []
      else
        let acc = if cb > cursor then (cursor, cb) :: acc else acc in
        go (max cursor (min cl limit)) acc rest
  in
  List.rev (go base [] cuts)

let build ?(promote_min_bytes = default_promote_min_bytes) ~policy ~arenas
    ~promoted () =
  (* Arena reservations, merged into maximal contiguous intervals. *)
  let arena_intervals =
    merge_adjacent (List.map (fun (base, size) -> (base, base + size, -1)) arenas)
    |> List.map (fun (b, l, _) -> (b, l))
  in
  let mappings =
    match (policy : Policy.t) with
    | Policy.Flat_4k ->
      List.map (fun (b, l) -> (b, l, -1, false)) arena_intervals
    | Policy.Flat_2m ->
      List.map (fun (b, l) -> (b, l, -1, true)) arena_intervals
    | Policy.Coalesce ->
      (* Merge the allocator-reported contiguity spans, keep the ones
         worth a large page, and back the rest of every arena with base
         pages. The spans are reservation extents, so their boundaries
         tile the arena intervals exactly; [subtract] only clamps. *)
      let spans =
        merge_adjacent promoted
        |> List.filter (fun (b, l, _) -> l - b >= promote_min_bytes)
      in
      List.concat_map
        (fun (b, l) ->
          let inside =
            List.filter (fun (sb, sl, _) -> sl > b && sb < l) spans
          in
          List.map (fun (sb, sl, owner) -> (max b sb, min l sl, owner, true))
            inside
          @ List.map (fun (gb, gl) -> (gb, gl, -1, false))
              (subtract (b, l) inside))
        arena_intervals
  in
  let mappings =
    List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b) mappings
  in
  let n = List.length mappings in
  let sbase = Array.make n 0
  and slimit = Array.make n 0
  and shift = Array.make n 0
  and levels = Array.make n 0
  and owner = Array.make n 0
  and phys = Array.make n 0 in
  let cur_phys = ref 0 and total_pages = ref 0 and large_spans = ref 0 in
  List.iteri
    (fun i (base, limit, own, large) ->
      if base land (Vaddr.sector_bytes - 1) <> 0 then
        invalid_arg "Page_table.build: mapping base not sector-aligned";
      sbase.(i) <- base lsr Vaddr.sector_shift;
      slimit.(i) <- (limit + Vaddr.sector_bytes - 1) lsr Vaddr.sector_shift;
      let sh = if large then large_shift else small_shift in
      shift.(i) <- sh;
      levels.(i) <- (if large then large_levels else small_levels);
      owner.(i) <- own;
      let page_bytes = if large then large_page_bytes else small_page_bytes in
      let bytes = (slimit.(i) - sbase.(i)) lsl Vaddr.sector_shift in
      let pages = (bytes + page_bytes - 1) / page_bytes in
      phys.(i) <- !cur_phys;
      cur_phys := !cur_phys + (pages * page_bytes);
      total_pages := !total_pages + pages;
      if large then incr large_spans)
    mappings;
  {
    sbase;
    slimit;
    shift;
    levels;
    owner;
    phys;
    last = Array.make 1 0;
    total_pages = !total_pages;
    large_spans = !large_spans;
  }

let spans t = Array.length t.sbase
let pages t = t.total_pages
let large_spans t = t.large_spans

(* Span containing [sector], or -1. Replay-hot: the one-entry cache
   catches the streaming case, the binary search everything else;
   neither allocates. *)
let key t i sector =
  (i lsl span_key_shift)
  lor ((sector - Array.unsafe_get t.sbase i) lsr Array.unsafe_get t.shift i)

(* The one span search: the one-entry hint, then a binary search. A loop
   rather than a local [let rec], which would capture [sector] and
   allocate a closure per hint miss on the replay path; it returns the
   page key directly so a translation costs one call here. *)
let page_key t sector =
  let sbase = t.sbase and slimit = t.slimit in
  let n = Array.length sbase in
  let last = t.last.(0) in
  let i =
    if
      last < n
      && sector >= Array.unsafe_get sbase last
      && sector < Array.unsafe_get slimit last
    then last
    else begin
      let lo = ref 0 and hi = ref n and found = ref (-1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if sector < Array.unsafe_get sbase mid then hi := mid
        else if sector >= Array.unsafe_get slimit mid then lo := mid + 1
        else begin
          found := mid;
          lo := !hi
        end
      done;
      if !found >= 0 then t.last.(0) <- !found;
      !found
    end
  in
  if i < 0 then -1 else key t i sector

let span_of_key k = k lsr span_key_shift

let find t sector =
  let k = page_key t sector in
  if k < 0 then -1 else span_of_key k

let levels_of (t : t) i = Array.unsafe_get t.levels i

module Raw = struct
  let sbase t = t.sbase
  let slimit t = t.slimit
  let shift t = t.shift
  let levels (t : t) = t.levels
end

let span_info (t : t) i =
  if i < 0 || i >= Array.length t.sbase then
    invalid_arg "Page_table.span_info: span index out of range";
  ( t.sbase.(i) lsl Vaddr.sector_shift,
    t.slimit.(i) lsl Vaddr.sector_shift,
    t.owner.(i) )

let translate (t : t) ~addr =
  let addr = Vaddr.strip addr in
  let i = find t (addr lsr Vaddr.sector_shift) in
  if i < 0 then None
  else
    Some
      {
        span = i;
        page_bytes = 1 lsl (t.shift.(i) + Vaddr.sector_shift);
        levels = t.levels.(i);
        owner = t.owner.(i);
        phys_addr = t.phys.(i) + (addr - (t.sbase.(i) lsl Vaddr.sector_shift));
      }
