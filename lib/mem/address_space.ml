type arena = {
  name : string;
  base : int;
  size : int;
}

type t = {
  mutable cursor : int;
  mutable reservations : arena list; (* newest first *)
}

(* Non-zero, so the null pointer is never handed out; page-aligned. *)
let first_base = 0x1000_0000

let create () = { cursor = first_base; reservations = [] }

let reserve t ~name ~size =
  if size <= 0 then invalid_arg "Address_space.reserve: size must be positive";
  let size = Vaddr.align_up size ~alignment:Page_store.page_bytes in
  let base = t.cursor in
  if base + size > Vaddr.va_mask then
    invalid_arg "Address_space.reserve: exhausted the 48-bit address space";
  let arena = { name; base; size } in
  t.cursor <- base + size;
  t.reservations <- arena :: t.reservations;
  arena

let arenas t = List.rev t.reservations

let find t name = List.find_opt (fun a -> String.equal a.name name) t.reservations

let contains a addr =
  let addr = Vaddr.strip addr in
  addr >= a.base && addr < a.base + a.size

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun a -> Format.fprintf ppf "%-24s base=0x%x size=%d@," a.name a.base a.size)
    (arenas t);
  Format.fprintf ppf "@]"
