let page_bits = 12
let page_bytes = 1 lsl page_bits
let page_words = page_bytes / Vaddr.word_bytes

(* Words are kept as two 32-bit halves so that 4-byte fields round-trip
   exactly even in the high half of a word (OCaml ints are 63-bit, so a
   packed 64-bit representation would lose the high field's sign bit).
   Full 64-bit values are therefore restricted to non-negative ints —
   pointers, table entries and indices, which is everything the runtime
   stores at word width.

   This store is the innermost loop of the functional phase (one lookup
   per lane per memory instruction), so the addressing is shift/mask
   (addresses are canonical, hence non-negative), page lookups go through
   [Hashtbl.find] + [Not_found] rather than [find_opt] (whose [Some]
   would be a minor allocation per lane), and a one-entry page memo
   short-circuits the hashtable for the common case of consecutive lanes
   landing on the same 4 KB page. *)
type t = {
  pages : (int, int array) Hashtbl.t;
  mutable last_page : int;          (* memo key; [min_int] = empty *)
  mutable last_cells : int array;   (* memo value, valid iff key set *)
}

let half_mask = 0xFFFF_FFFF

let create () =
  { pages = Hashtbl.create 1024; last_page = min_int; last_cells = [||] }

let check_addr addr label =
  if not (Vaddr.is_canonical addr) then
    invalid_arg ("Page_store." ^ label ^ ": tagged address reached the store");
  if addr land (Vaddr.word_bytes - 1) <> 0 then
    invalid_arg ("Page_store." ^ label ^ ": misaligned address")

let page_of addr = addr lsr page_bits

(* The memoized lookup: raises [Not_found] on an untouched page (the
   zero-fill case), which the callers turn into a load of 0. The memo is
   only ever set to a live table entry, so hits can skip the table. *)
let cells_of_page t key =
  if key = t.last_page then t.last_cells
  else begin
    let cells = Hashtbl.find t.pages key in
    t.last_page <- key;
    t.last_cells <- cells;
    cells
  end

let materialize t key =
  if key = t.last_page then t.last_cells
  else
    match Hashtbl.find t.pages key with
    | cells ->
      t.last_page <- key;
      t.last_cells <- cells;
      cells
    | exception Not_found ->
      let cells = Array.make (page_words * 2) 0 in
      Hashtbl.add t.pages key cells;
      t.last_page <- key;
      t.last_cells <- cells;
      cells

(* Index of the 32-bit half-cell containing byte [addr]. *)
let cell_index addr = (addr land (page_bytes - 1)) lsr 2

let load t addr =
  check_addr addr "load";
  match cells_of_page t (page_of addr) with
  | exception Not_found -> 0
  | cells ->
    let i = cell_index addr in
    (cells.(i + 1) lsl 32) lor cells.(i)

let store t addr v =
  check_addr addr "store";
  if v < 0 then invalid_arg "Page_store.store: negative 64-bit stores are unsupported";
  let cells = materialize t (page_of addr) in
  let i = cell_index addr in
  cells.(i) <- v land half_mask;
  cells.(i + 1) <- (v lsr 32) land half_mask

let check_width width label =
  match width with
  | 1 | 2 | 4 | 8 -> ()
  | _ -> invalid_arg ("Page_store." ^ label ^ ": width must be 1, 2, 4 or 8")

let check_field_alignment addr width label =
  if addr land (width - 1) <> 0 then
    invalid_arg ("Page_store." ^ label ^ ": misaligned field")

let load_byte_width t addr ~width =
  check_width width "load_byte_width";
  check_field_alignment addr width "load_byte_width";
  if width = 8 then load t addr
  else begin
    match cells_of_page t (page_of addr) with
    | exception Not_found -> 0
    | cells ->
      let half = cells.(cell_index addr) in
      if width = 4 then half
      else begin
        let shift = (addr land 3) * 8 in
        let mask = (1 lsl (width * 8)) - 1 in
        (half lsr shift) land mask
      end
  end

let store_byte_width t addr ~width v =
  check_width width "store_byte_width";
  check_field_alignment addr width "store_byte_width";
  if width = 8 then store t addr v
  else begin
    let cells = materialize t (page_of addr) in
    let i = cell_index addr in
    if width = 4 then cells.(i) <- v land half_mask
    else begin
      let shift = (addr land 3) * 8 in
      let mask = ((1 lsl (width * 8)) - 1) lsl shift in
      cells.(i) <- (cells.(i) land lnot mask lor ((v lsl shift) land mask)) land half_mask
    end
  end

(* Batched lane loops for the emission path ([Warp_ctx.load_into]): one
   call per warp instruction instead of one cross-module call per lane,
   with the page memo, alignment checks and width decode in a single
   loop. Semantics (including the exceptions raised and their messages)
   are exactly [load_byte_width]/[store_byte_width] per element; the
   checks are hand-inlined (one mask-and-compare per lane on the fast
   path) and the scratch/out accesses are unchecked — [addrs.(off ..
   off+n-1)] and [out/values.(0 .. n-1)] are in range by the caller's
   contract, and cell indices are in range by construction (masked with
   the page mask). *)
let va_hi_mask = Vaddr.va_mask

(* True iff any per-element word check would fail: tag bits present
   (non-canonical, including negative) or not naturally aligned. *)
let needs_slow_path addr width =
  (addr land lnot va_hi_mask <> 0) || (addr land (width - 1) <> 0)

let slow_checks addr width label =
  (* Off the fast path: re-raise with exactly the per-element checks. *)
  check_field_alignment addr width
    (if label then "load_byte_width" else "store_byte_width");
  check_addr addr (if label then "load" else "store")

let load_batch t addrs ~off ~n ~width out =
  check_width width "load_byte_width";
  if width = 8 then
    for k = 0 to n - 1 do
      let addr = Array.unsafe_get addrs (off + k) in
      if needs_slow_path addr 8 then slow_checks addr 8 true;
      let key = addr lsr page_bits in
      let v =
        if key = t.last_page then begin
          let cells = t.last_cells in
          let i = (addr land (page_bytes - 1)) lsr 2 in
          (Array.unsafe_get cells (i + 1) lsl 32) lor Array.unsafe_get cells i
        end
        else
          match cells_of_page t key with
          | exception Not_found -> 0
          | cells ->
            let i = cell_index addr in
            (cells.(i + 1) lsl 32) lor cells.(i)
      in
      Array.unsafe_set out k v
    done
  else
    for k = 0 to n - 1 do
      let addr = Array.unsafe_get addrs (off + k) in
      check_field_alignment addr width "load_byte_width";
      let key = addr lsr page_bits in
      let v =
        if key = t.last_page then begin
          let half =
            Array.unsafe_get t.last_cells ((addr land (page_bytes - 1)) lsr 2)
          in
          if width = 4 then half
          else begin
            let shift = (addr land 3) * 8 in
            let mask = (1 lsl (width * 8)) - 1 in
            (half lsr shift) land mask
          end
        end
        else
          match cells_of_page t key with
          | exception Not_found -> 0
          | cells ->
            let half = cells.(cell_index addr) in
            if width = 4 then half
            else begin
              let shift = (addr land 3) * 8 in
              let mask = (1 lsl (width * 8)) - 1 in
              (half lsr shift) land mask
            end
      in
      Array.unsafe_set out k v
    done

let store_batch t addrs ~off ~n ~width values =
  check_width width "store_byte_width";
  if width = 8 then
    for k = 0 to n - 1 do
      let addr = Array.unsafe_get addrs (off + k) in
      let v = Array.unsafe_get values k in
      if needs_slow_path addr 8 then slow_checks addr 8 false;
      if v < 0 then
        invalid_arg "Page_store.store: negative 64-bit stores are unsupported";
      let cells = materialize t (addr lsr page_bits) in
      let i = (addr land (page_bytes - 1)) lsr 2 in
      Array.unsafe_set cells i (v land half_mask);
      Array.unsafe_set cells (i + 1) ((v lsr 32) land half_mask)
    done
  else
    for k = 0 to n - 1 do
      let addr = Array.unsafe_get addrs (off + k) in
      check_field_alignment addr width "store_byte_width";
      let cells = materialize t (addr lsr page_bits) in
      let i = (addr land (page_bytes - 1)) lsr 2 in
      if width = 4 then
        Array.unsafe_set cells i (Array.unsafe_get values k land half_mask)
      else begin
        let shift = (addr land 3) * 8 in
        let mask = ((1 lsl (width * 8)) - 1) lsl shift in
        Array.unsafe_set cells i
          ((Array.unsafe_get cells i land lnot mask
            lor ((Array.unsafe_get values k lsl shift) land mask))
           land half_mask)
      end
    done

let touched_pages t = Hashtbl.length t.pages

let footprint_bytes t = touched_pages t * page_bytes

let iter_words t f =
  Hashtbl.iter
    (fun page cells ->
      let base = page * page_bytes in
      for w = 0 to page_words - 1 do
        let v = (cells.((2 * w) + 1) lsl 32) lor cells.(2 * w) in
        if v <> 0 then f (base + (w * Vaddr.word_bytes)) v
      done)
    t.pages
