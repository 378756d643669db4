module Vaddr = Repro_mem.Vaddr

type t = {
  base : int;
  len : int;
}

let alloc ~space ~name ~len =
  if len <= 0 then invalid_arg "Garray.alloc: len must be positive";
  let arena =
    Repro_mem.Address_space.reserve space ~name ~size:(len * Vaddr.word_bytes)
  in
  { base = arena.Repro_mem.Address_space.base; len }

let len t = t.len

let base t = t.base

let addr t i =
  if i < 0 || i >= t.len then invalid_arg "Garray.addr: index out of bounds";
  t.base + (i * Vaddr.word_bytes)

(* The per-lane addresses go through the warp's reusable scratch buffer,
   so only the loaded-values array is allocated. *)
let fill_addrs t ctx idxs =
  let n = Array.length idxs in
  let buf = Repro_gpu.Warp_ctx.addr_scratch ctx n in
  for i = 0 to n - 1 do
    buf.(i) <- addr t idxs.(i)
  done;
  buf

let load t ctx ~idxs =
  Repro_gpu.Warp_ctx.load_into ctx ~label:Repro_gpu.Label.Body ~blocking:true
    ~addrs:(fill_addrs t ctx idxs) ~n:(Array.length idxs)

let store t ctx ~idxs values =
  Repro_gpu.Warp_ctx.store_from ctx ~label:Repro_gpu.Label.Body
    ~addrs:(fill_addrs t ctx idxs) ~n:(Array.length idxs) values

let get t heap i = Repro_mem.Page_store.load heap (addr t i)

let set t heap i v = Repro_mem.Page_store.store heap (addr t i) v
