(* Warp-level memory coalescing: per-lane byte addresses -> the distinct
   32 B sectors they touch, in ascending order.

   [sectors_into_unsafe] is the replay-path version: a monomorphic
   insertion sort into a caller-owned scratch buffer (warps are at most 32
   lanes, so the sorted prefix is tiny and insertion sort beats a general
   sort with a polymorphic comparator by a wide margin), deduplicating as
   it inserts and allocating nothing. [sectors] is the naive reference
   kept for tests and non-hot callers. *)

let sector_mask = Repro_mem.Vaddr.va_mask

let sector_shift = Repro_mem.Vaddr.sector_shift

(* Insert the distinct ascending sector ids of [addrs.(off .. off+len-1)]
   into [buf.(0 .. )]; returns how many were written. The per-element
   bounds checks are elided: [off]/[len] come straight from trace columns
   (in range by construction) and [buf] is the memory path's warp-wide
   scratch. Tag bits are ignored ([Vaddr.strip] semantics). *)
let sectors_into_unsafe ~buf addrs ~off ~len =
  let n = ref 0 in
  for k = off to off + len - 1 do
    let s = (Array.unsafe_get addrs k land sector_mask) lsr sector_shift in
    (* Find the insertion point from the right of the sorted prefix. *)
    let i = ref (!n - 1) in
    while !i >= 0 && Array.unsafe_get buf !i > s do
      decr i
    done;
    if not (!i >= 0 && Array.unsafe_get buf !i = s) then begin
      (* Shift the tail right and insert. *)
      let j = ref (!n - 1) in
      while !j > !i do
        Array.unsafe_set buf (!j + 1) (Array.unsafe_get buf !j);
        decr j
      done;
      Array.unsafe_set buf (!i + 1) s;
      incr n
    end
  done;
  !n

let sectors addrs =
  let s = Array.map Repro_mem.Vaddr.sector_of addrs in
  Array.sort compare s;
  let n = Array.length s in
  let distinct = ref 0 in
  for i = 0 to n - 1 do
    if i = 0 || s.(i) <> s.(i - 1) then begin
      s.(!distinct) <- s.(i);
      incr distinct
    end
  done;
  Array.sub s 0 !distinct

let transaction_count addrs = Array.length (sectors addrs)
