(* Tests for the simulated virtual-memory substrate. *)

module Vaddr = Repro_mem.Vaddr
module Page_store = Repro_mem.Page_store
module Address_space = Repro_mem.Address_space

let check = Alcotest.check

let test_vaddr_constants () =
  check Alcotest.int "va bits" 48 Vaddr.va_bits;
  check Alcotest.int "tag bits" 15 Vaddr.tag_bits;
  check Alcotest.int "max tag" 32767 Vaddr.max_tag;
  check Alcotest.int "sector" 32 Vaddr.sector_bytes

let test_vaddr_tagging () =
  let addr = 0x1234_5678 in
  let tagged = Vaddr.with_tag addr ~tag:4097 in
  check Alcotest.bool "tagged not canonical" false (Vaddr.is_canonical tagged);
  check Alcotest.int "tag recovered" 4097 (Vaddr.tag_of tagged);
  check Alcotest.int "strip recovers address" addr (Vaddr.strip tagged);
  check Alcotest.int "canonical tag is 0" 0 (Vaddr.tag_of addr);
  Alcotest.check_raises "double tag"
    (Invalid_argument "Vaddr.with_tag: address already tagged") (fun () ->
      ignore (Vaddr.with_tag tagged ~tag:1));
  Alcotest.check_raises "tag out of range"
    (Invalid_argument "Vaddr.with_tag: tag out of range") (fun () ->
      ignore (Vaddr.with_tag addr ~tag:(Vaddr.max_tag + 1)))

let test_vaddr_alignment () =
  check Alcotest.int "align up" 128 (Vaddr.align_up 100 ~alignment:128);
  check Alcotest.int "already aligned" 128 (Vaddr.align_up 128 ~alignment:128);
  check Alcotest.bool "is_aligned" true (Vaddr.is_aligned 256 ~alignment:128);
  check Alcotest.bool "not aligned" false (Vaddr.is_aligned 100 ~alignment:128);
  Alcotest.check_raises "bad alignment"
    (Invalid_argument "Vaddr.align_up: alignment must be a positive power of two")
    (fun () -> ignore (Vaddr.align_up 1 ~alignment:3))

let test_vaddr_sectors () =
  check Alcotest.int "sector 0" 0 (Vaddr.sector_of 31);
  check Alcotest.int "sector 1" 1 (Vaddr.sector_of 32);
  check Alcotest.int "tag ignored" 1 (Vaddr.sector_of (Vaddr.with_tag 32 ~tag:5));
  check Alcotest.int "word index" 2 (Vaddr.word_index 16);
  Alcotest.check_raises "misaligned word"
    (Invalid_argument "Vaddr.word_index: misaligned address") (fun () ->
      ignore (Vaddr.word_index 12))

let words_of t =
  let acc = ref [] in
  Page_store.iter_words t (fun a v -> acc := (a, v) :: !acc);
  List.sort compare !acc

let test_page_store_roundtrip () =
  let s = Page_store.create () in
  check Alcotest.int "default zero" 0 (Page_store.load s 4096);
  Page_store.store s 4096 42;
  check Alcotest.int "stored" 42 (Page_store.load s 4096);
  Page_store.store s 8 ((1 lsl 61) + 5);
  check Alcotest.int "large word" ((1 lsl 61) + 5) (Page_store.load s 8);
  Alcotest.check_raises "negative word rejected"
    (Invalid_argument "Page_store.store: negative 64-bit stores are unsupported")
    (fun () -> Page_store.store s 8 (-17));
  check Alcotest.int "two pages touched" 2 (Page_store.touched_pages s);
  check Alcotest.int "footprint" (2 * Page_store.page_bytes) (Page_store.footprint_bytes s)

let test_page_store_byte_width () =
  let s = Page_store.create () in
  Page_store.store_byte_width s 100 ~width:4 0xDEAD;
  check Alcotest.int "4-byte roundtrip" 0xDEAD (Page_store.load_byte_width s 100 ~width:4);
  (* Neighbouring 4-byte slot in the same word is untouched. *)
  Page_store.store_byte_width s 96 ~width:4 7;
  check Alcotest.int "low half" 7 (Page_store.load_byte_width s 96 ~width:4);
  check Alcotest.int "high half intact" 0xDEAD (Page_store.load_byte_width s 100 ~width:4);
  (* Truncation on store. *)
  Page_store.store_byte_width s 96 ~width:4 (1 lsl 33);
  check Alcotest.int "truncated" 0 (Page_store.load_byte_width s 96 ~width:4);
  Alcotest.check_raises "misaligned field"
    (Invalid_argument "Page_store.load_byte_width: misaligned field") (fun () ->
      ignore (Page_store.load_byte_width s 98 ~width:4))

(* Golden values of the width semantics, whatever the page
   representation: a width-8 read is the low 63 bits of the
   little-endian word (so the word's top bit is dropped and its bit 62
   is the OCaml sign bit), narrower reads zero-extend, and narrower
   stores truncate. *)
let test_page_store_golden_widths () =
  let s = Page_store.create () in
  let w8 a = Page_store.load_byte_width s a ~width:8 in
  let w4 a = Page_store.load_byte_width s a ~width:4 in
  (* A negative 4-byte field in a word's high half, read at width 8. *)
  Page_store.store_byte_width s 0x1000 ~width:4 0x1234_5678;
  Page_store.store_byte_width s 0x1004 ~width:4 (-1);
  check Alcotest.int "negative high half, width 4" 0xFFFF_FFFF (w4 0x1004);
  check Alcotest.int "negative high half, width 8" (-3989547400) (w8 0x1000);
  check Alcotest.int "negative high half, word load" (-3989547400)
    (Page_store.load s 0x1000);
  Page_store.store_byte_width s 0x1004 ~width:4 (-2);
  check Alcotest.int "-2 in high half, width 8" (-8589934592 + 0x1234_5678)
    (w8 0x1000);
  (* Bit 63 is the only bit of 0x8000_0000 in the high half: dropped. *)
  Page_store.store_byte_width s 0x1004 ~width:4 (-(1 lsl 31));
  check Alcotest.int "int32 min in high half, width 4" 0x8000_0000 (w4 0x1004);
  check Alcotest.int "int32 min in high half, width 8" 0x1234_5678 (w8 0x1000);
  (* 1- and 2-byte stores read back at widths 4 and 8. *)
  Page_store.store_byte_width s 0x2002 ~width:2 0xBEEF;
  Page_store.store_byte_width s 0x2005 ~width:1 0xAB;
  Page_store.store_byte_width s 0x2007 ~width:1 0x7F;
  Page_store.store_byte_width s 0x2000 ~width:2 0x1_8001;
  check Alcotest.int "2-byte stores, low width 4" 0xBEEF_8001 (w4 0x2000);
  check Alcotest.int "1-byte stores, high width 4" 0x7F00_AB00 (w4 0x2004);
  check Alcotest.int "narrow stores, width 8" (-71869574346211327) (w8 0x2000);
  check Alcotest.int "2-byte read" 0xBEEF
    (Page_store.load_byte_width s 0x2002 ~width:2);
  check Alcotest.int "1-byte read" 0xAB
    (Page_store.load_byte_width s 0x2005 ~width:1);
  Page_store.store_byte_width s 0x2007 ~width:1 (-1);
  check Alcotest.int "top byte 0xFF, width 4" 0xFF00_AB00 (w4 0x2004);
  check Alcotest.int "top byte 0xFF, width 8" (-71869574346211327) (w8 0x2000);
  (* The largest non-negative word. *)
  Page_store.store s 0x3000 max_int;
  check Alcotest.int "max_int word" max_int (Page_store.load s 0x3000);
  check Alcotest.int "max_int width 8" 4611686018427387903 (w8 0x3000);
  check Alcotest.int "max_int low half" 0xFFFF_FFFF (w4 0x3000);
  check Alcotest.int "max_int high half" 0x3FFF_FFFF (w4 0x3004);
  check Alcotest.int "max_int top byte" 0x3F
    (Page_store.load_byte_width s 0x3007 ~width:1);
  check Alcotest.int "max_int top 2 bytes" 0x3FFF
    (Page_store.load_byte_width s 0x3006 ~width:2);
  Alcotest.check_raises "negative word still rejected"
    (Invalid_argument "Page_store.store: negative 64-bit stores are unsupported")
    (fun () -> Page_store.store_byte_width s 0x3000 ~width:8 min_int);
  check Alcotest.int "rejected store wrote nothing" max_int (w8 0x3000)

(* A tagged address must raise at every width, scalar and batched, and
   before the page lookup: the radix directory indexes by the unmasked
   page number, so a masked index would alias the canonical page and an
   unmasked one would reach past the 48-bit space. *)
let test_page_store_rejects_tagged () =
  let s = Page_store.create () in
  Alcotest.check_raises "tagged load"
    (Invalid_argument "Page_store.load: tagged address reached the store") (fun () ->
      ignore (Page_store.load s (Vaddr.with_tag 64 ~tag:3)));
  let canonical = 0x1000_0000 in
  Page_store.store_byte_width s canonical ~width:4 0xBEEF;
  let tagged = Vaddr.with_tag canonical ~tag:7 in
  let before = words_of s in
  List.iter
    (fun width ->
      Alcotest.check_raises
        (Printf.sprintf "tagged %d-byte load" width)
        (Invalid_argument "Page_store.load: tagged address reached the store")
        (fun () -> ignore (Page_store.load_byte_width s tagged ~width));
      Alcotest.check_raises
        (Printf.sprintf "tagged %d-byte store" width)
        (Invalid_argument "Page_store.store: tagged address reached the store")
        (fun () -> Page_store.store_byte_width s tagged ~width 0x55);
      let addrs = [| 0; tagged |] and out = [| -1 |] in
      Alcotest.check_raises
        (Printf.sprintf "tagged %d-byte load_batch" width)
        (Invalid_argument "Page_store.load: tagged address reached the store")
        (fun () -> Page_store.load_batch s addrs ~off:1 ~n:1 ~width out);
      Alcotest.check_raises
        (Printf.sprintf "tagged %d-byte store_batch" width)
        (Invalid_argument "Page_store.store: tagged address reached the store")
        (fun () -> Page_store.store_batch s addrs ~off:1 ~n:1 ~width [| 0x55 |]))
    [ 1; 2; 4; 8 ];
  check Alcotest.int "one page touched" 1 (Page_store.touched_pages s);
  check Alcotest.(list (pair int int)) "contents unchanged" before (words_of s);
  check Alcotest.int "canonical field intact" 0xBEEF
    (Page_store.load_byte_width s canonical ~width:4)

(* Words come out in increasing address order: within a page, across
   pages of one leaf, and across directory subtrees, whatever order they
   were written in. Zero words are skipped, even on a touched page. *)
let test_page_store_iter_words () =
  let s = Page_store.create () in
  let far = (3 lsl 24) * Page_store.page_bytes and mid = (5 lsl 12) * Page_store.page_bytes in
  let written =
    [ (far + 8, 11); (16, 7); (mid, 3); (0, 5); (Page_store.page_bytes + 8, 9);
      (far, 13); (24, 0) ]
  in
  List.iter (fun (a, v) -> Page_store.store s a v) written;
  let seen = ref [] in
  Page_store.iter_words s (fun addr v -> seen := (addr, v) :: !seen);
  let want = List.sort compare (List.filter (fun (_, v) -> v <> 0) written) in
  check Alcotest.(list (pair int int)) "non-zero words in address order" want
    (List.rev !seen)

let test_address_space_reservations () =
  let space = Address_space.create () in
  let a = Address_space.reserve space ~name:"a" ~size:100 in
  let b = Address_space.reserve space ~name:"b" ~size:5000 in
  check Alcotest.bool "page aligned" true
    (Vaddr.is_aligned a.Address_space.base ~alignment:Page_store.page_bytes);
  check Alcotest.bool "disjoint" true
    (a.Address_space.base + a.Address_space.size <= b.Address_space.base);
  check Alcotest.int "rounded size" Page_store.page_bytes a.Address_space.size;
  check Alcotest.bool "contains" true (Address_space.contains a a.Address_space.base);
  check Alcotest.bool "not contains" false (Address_space.contains a b.Address_space.base);
  check Alcotest.bool "find" true (Address_space.find space "b" <> None);
  check Alcotest.bool "find missing" true (Address_space.find space "zz" = None);
  check Alcotest.int "two arenas" 2 (List.length (Address_space.arenas space))

let test_address_space_null_guard () =
  let space = Address_space.create () in
  let a = Address_space.reserve space ~name:"first" ~size:8 in
  check Alcotest.bool "never hands out null" true (a.Address_space.base > 0)

let prop_tag_roundtrip =
  QCheck.Test.make ~name:"vaddr tag encode/decode identity" ~count:500
    QCheck.(pair (int_bound ((1 lsl 30) - 1)) (int_bound Vaddr.max_tag))
    (fun (addr, tag) ->
      let tagged = Vaddr.with_tag addr ~tag in
      Vaddr.strip tagged = addr && Vaddr.tag_of tagged = tag)

let prop_tag_rejects_out_of_range =
  QCheck.Test.make ~name:"vaddr with_tag rejects out-of-range tags" ~count:200
    QCheck.(
      pair
        (int_bound ((1 lsl 30) - 1))
        (map (fun n -> Vaddr.max_tag + 1 + n) (int_bound 1000)))
    (fun (addr, tag) ->
      match Vaddr.with_tag addr ~tag with
      | exception Invalid_argument _ -> true
      | _ -> false)

let prop_tag_rejects_tagged_input =
  QCheck.Test.make ~name:"vaddr with_tag rejects non-canonical input" ~count:200
    QCheck.(
      pair
        (int_bound ((1 lsl 30) - 1))
        (pair (int_range 1 Vaddr.max_tag) (int_bound Vaddr.max_tag)))
    (fun (addr, (tag, tag')) ->
      let tagged = Vaddr.with_tag addr ~tag in
      (not (Vaddr.is_canonical tagged))
      &&
      match Vaddr.with_tag tagged ~tag:tag' with
      | exception Invalid_argument _ -> true
      | _ -> false)

let prop_strip_canonicalizes =
  QCheck.Test.make ~name:"vaddr strip is canonical and idempotent" ~count:500
    QCheck.(pair (int_bound ((1 lsl 30) - 1)) (int_bound Vaddr.max_tag))
    (fun (addr, tag) ->
      let tagged = Vaddr.with_tag addr ~tag in
      let stripped = Vaddr.strip tagged in
      Vaddr.is_canonical stripped
      && Vaddr.strip stripped = stripped
      && Vaddr.tag_of stripped = 0)

let prop_align_up_bounds =
  QCheck.Test.make ~name:"vaddr align_up lands on nearest boundary" ~count:500
    QCheck.(
      pair (int_bound ((1 lsl 30) - 1)) (map (fun k -> 1 lsl k) (int_bound 12)))
    (fun (addr, alignment) ->
      let up = Vaddr.align_up addr ~alignment in
      Vaddr.is_aligned up ~alignment
      && up >= addr
      && up - addr < alignment
      && Vaddr.align_up up ~alignment = up)

let prop_sector_boundaries =
  QCheck.Test.make ~name:"vaddr sector_of constant within a sector" ~count:500
    QCheck.(pair (int_bound ((1 lsl 20) - 1)) (int_bound (Vaddr.sector_bytes - 1)))
    (fun (sector, offset) ->
      let base = sector * Vaddr.sector_bytes in
      Vaddr.sector_of (base + offset) = sector
      && Vaddr.sector_of (base + Vaddr.sector_bytes) = sector + 1)

let prop_store_load =
  QCheck.Test.make ~name:"page store load returns last store" ~count:300
    QCheck.(pair (int_bound 10_000) int)
    (fun (word, v) ->
      let v = abs v in
      let s = Page_store.create () in
      let addr = word * 8 in
      Page_store.store s addr v;
      Page_store.load s addr = v)

(* --- batched access ---------------------------------------------------- *)

(* The batch entry points are the fused emission engine's per-warp loops;
   their contract is element-for-element equivalence with the scalar ops,
   including which exception fires first and any partial writes before
   it. Addresses mix aligned, misaligned and tagged forms to exercise
   both the memoized fast path and the slow-path checks. *)

let outcome f = match f () with v -> Ok v | exception e -> Error e

let batch_addr width (a, kind) =
  match kind mod 3 with
  | 0 -> a - (a mod width) (* aligned: the fast path *)
  | 1 -> a (* possibly misaligned *)
  | _ -> Vaddr.with_tag (a - (a mod width)) ~tag:7 (* tagged *)

let gen_batch =
  QCheck.(
    pair (int_bound 3)
      (list_of_size (Gen.int_range 1 40)
         (pair (int_bound 300_000) (int_bound 20))))

let prop_load_batch_equiv =
  QCheck.Test.make ~name:"load_batch matches per-element load_byte_width"
    ~count:400 gen_batch
    (fun (wexp, cells) ->
      let width = 1 lsl wexp in
      let t = Page_store.create () in
      (* Seed backing words so loads see nonzero data. *)
      List.iteri
        (fun i (a, _) ->
          Page_store.store t (a - (a mod 8)) ((i + 1) * 2654435761))
        cells;
      let addrs = Array.of_list (List.map (batch_addr width) cells) in
      let n = Array.length addrs in
      (* Embed at a nonzero arena offset, as trace columns do. *)
      let off = 2 in
      let arena = Array.make (off + n + 1) 0 in
      Array.blit addrs 0 arena off n;
      let out = Array.make n (-1) in
      let batch =
        outcome (fun () ->
            Page_store.load_batch t arena ~off ~n ~width out;
            Array.copy out)
      in
      let scalar =
        outcome (fun () ->
            Array.map (fun a -> Page_store.load_byte_width t a ~width) addrs)
      in
      batch = scalar)

let prop_store_batch_equiv =
  QCheck.Test.make ~name:"store_batch matches per-element store_byte_width"
    ~count:400 gen_batch
    (fun (wexp, cells) ->
      let width = 1 lsl wexp in
      let t1 = Page_store.create () and t2 = Page_store.create () in
      let addrs = Array.of_list (List.map (batch_addr width) cells) in
      let n = Array.length addrs in
      (* An occasional negative value exercises the 64-bit store guard. *)
      let values = Array.init n (fun i -> ((i + 1) * 48271) - 200_000) in
      let off = 2 in
      let arena = Array.make (off + n + 1) 0 in
      Array.blit addrs 0 arena off n;
      let batch =
        outcome (fun () -> Page_store.store_batch t1 arena ~off ~n ~width values)
      in
      let scalar =
        outcome (fun () ->
            Array.iteri
              (fun i a -> Page_store.store_byte_width t2 a ~width values.(i))
              addrs)
      in
      (* Same outcome, and the same heap contents even when an exception
         interrupted the loop part-way. *)
      batch = scalar && words_of t1 = words_of t2)

(* --- the radix directory against a reference model ---------------------- *)

(* A byte-granular model of the store: a map from byte address to byte.
   A word is rebuilt little-endian by shifting its bytes into an OCaml
   int, which keeps its low 63 bits as the store's width-8 read does, so
   even a word whose top bits a narrow store set reads back identically. *)
module Bytes_model = Map.Make (Int)

let model_store m addr width v =
  let m = ref m in
  for b = 0 to width - 1 do
    m := Bytes_model.add (addr + b) ((v lsr (8 * b)) land 0xFF) !m
  done;
  !m

let model_load m addr width =
  let v = ref 0 in
  for b = width - 1 downto 0 do
    let byte = Option.value ~default:0 (Bytes_model.find_opt (addr + b) m) in
    v := (!v lsl 8) lor byte
  done;
  !v

let model_words m =
  let words =
    Bytes_model.fold (fun a _ acc -> (a land lnot 7) :: acc) m []
    |> List.sort_uniq compare
  in
  List.filter_map
    (fun a ->
      let v = model_load m a 8 in
      if v <> 0 then Some (a, v) else None)
    words

let page_number_bits = Vaddr.va_bits - 12
let last_canonical_page = (1 lsl page_number_bits) - 1

(* Pages that stress the directory: page 0, the last canonical page,
   two pages differing only in their top-level index, two differing only
   in their mid-level index, and a random canonical page. The last two
   stress the page memo: another leaf of the third page's level and
   another page than the random one, each in its partner's memo slot
   (page numbers equal modulo [memo_slots]). *)
let gen_pages =
  QCheck.Gen.(
    map
      (fun ((t1, t2), (m1, m2), (leaf, r)) ->
        let page t m = (t lsl 24) lor (m lsl 12) lor leaf in
        let slot_mate p = p lxor Page_store.memo_slots in
        [| 0; last_canonical_page; page t1 m1; page t2 m1; page t1 m2;
           r; slot_mate (page t1 m1); slot_mate r |])
      (triple
         (pair (int_bound 4095) (int_bound 4095))
         (pair (int_bound 4095) (int_bound 4095))
         (pair (int_bound 4095) (int_bound last_canonical_page))))

(* Page indices into [gen_pages]: half the time one of the two memo
   collisions, alternating between the partners. *)
let gen_page_index =
  QCheck.Gen.(
    frequency
      [ (1, int_bound 7);
        (1, map (fun (b, pair) -> [| 2; 6; 5; 7 |].((2 * pair) + Bool.to_int b))
             (pair bool (int_bound 1))) ])

type dir_op = { is_store : bool; page : int; offset : int; width : int; value : int }

let gen_dir_ops =
  QCheck.Gen.(
    list_size (int_range 1 80)
      (map
         (fun ((is_store, page), (offset, wexp), value) ->
           let width = 1 lsl wexp in
           { is_store; page; offset = offset land lnot (width - 1); width;
             value = (if width = 8 then abs value else value) })
         (triple (pair bool gen_page_index) (pair (int_bound 4095) (int_bound 3))
            int)))

let print_dir_case (pages, ops) =
  Printf.sprintf "pages [%s]; ops [%s]"
    (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "0x%x") pages)))
    (String.concat "; "
       (List.map
          (fun o ->
            Printf.sprintf "%s p%d+%d w%d %d"
              (if o.is_store then "store" else "load")
              o.page o.offset o.width o.value)
          ops))

let prop_directory_model =
  QCheck.Test.make ~name:"page directory matches a byte-map model" ~count:300
    (QCheck.make ~print:print_dir_case QCheck.Gen.(pair gen_pages gen_dir_ops))
    (fun (pages, ops) ->
      let t = Page_store.create () in
      let model, touched =
        List.fold_left
          (fun (model, touched) o ->
            let addr = (pages.(o.page) * Page_store.page_bytes) + o.offset in
            if o.is_store then begin
              Page_store.store_byte_width t addr ~width:o.width o.value;
              (model_store model addr o.width o.value,
               if List.mem pages.(o.page) touched then touched
               else pages.(o.page) :: touched)
            end
            else begin
              let got = Page_store.load_byte_width t addr ~width:o.width in
              let want = model_load model addr o.width in
              if got <> want then
                QCheck.Test.fail_reportf "load 0x%x w%d: got %d, model %d" addr
                  o.width got want;
              (model, touched)
            end)
          (Bytes_model.empty, []) ops
      in
      Page_store.touched_pages t = List.length touched
      && words_of t = model_words model)

(* The batched entry points against the same byte map, with the
   exceptions spelled out independently of the store: per lane, field
   alignment first, then canonicality under the word op's name, then (for
   an 8-byte store) the sign of the value; the lanes before a failing one
   have taken effect. Columns sit at a nonzero offset in a larger arena,
   as trace columns do, and mix pages from distinct directory subtrees. *)
type lane_kind = Aligned | Misaligned | Tagged | Tagged_misaligned

type batch_op = {
  b_store : bool;
  b_width : int;
  b_off : int;
  lanes : (int * int * lane_kind) list; (* page index, offset, kind *)
  b_values : int list;
}

let gen_batch_ops =
  QCheck.Gen.(
    let kind =
      frequency
        [ (20, return Aligned); (1, return Misaligned); (1, return Tagged);
          (1, return Tagged_misaligned) ]
    in
    list_size (int_range 1 30)
      (int_range 1 32 >>= fun n ->
       map
         (fun (((b_store, wexp), b_off), (lanes, values)) ->
           let b_width = 1 lsl wexp in
           let b_values =
             (* Mostly valid word values, an occasional negative one. *)
             List.mapi
               (fun i v -> if b_width = 8 && i mod 17 <> 16 then abs v else v)
               values
           in
           { b_store; b_width; b_off; lanes; b_values })
         (pair
            (pair (pair bool (int_bound 3)) (int_bound 3))
            (pair
               (list_repeat n (triple (int_bound 5) (int_bound 4095) kind))
               (list_repeat n int)))))

let lane_addr pages width (page, offset, kind) =
  let aligned = (pages.(page) * Page_store.page_bytes) + (offset land lnot (width - 1)) in
  let misaligned = if width = 1 then aligned else aligned lor 1 in
  match kind with
  | Aligned -> aligned
  | Misaligned -> misaligned
  | Tagged -> Vaddr.with_tag aligned ~tag:(1 + (offset mod Vaddr.max_tag))
  | Tagged_misaligned -> Vaddr.with_tag misaligned ~tag:3

(* The exception the store must raise for one lane, if any. *)
let lane_error ~store addr width v =
  let op = if store then "store" else "load" in
  if addr land (width - 1) <> 0 then
    Some (Invalid_argument (Printf.sprintf "Page_store.%s_byte_width: misaligned field" op))
  else if not (Vaddr.is_canonical addr) then
    Some (Invalid_argument (Printf.sprintf "Page_store.%s: tagged address reached the store" op))
  else if store && width = 8 && v < 0 then
    Some (Invalid_argument "Page_store.store: negative 64-bit stores are unsupported")
  else None

let print_batch_case (pages, ops) =
  Printf.sprintf "pages [%s]; %d batches"
    (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "0x%x") pages)))
    (List.length ops)

let prop_batch_model =
  QCheck.Test.make ~name:"page store batches match a byte-map model" ~count:200
    (QCheck.make ~print:print_batch_case QCheck.Gen.(pair gen_pages gen_batch_ops))
    (fun (pages, ops) ->
      let t = Page_store.create () in
      let model = ref Bytes_model.empty and touched = ref [] in
      List.iteri
        (fun bi o ->
          let width = o.b_width in
          let addrs = Array.of_list (List.map (lane_addr pages width) o.lanes) in
          let values = Array.of_list o.b_values in
          let n = Array.length addrs in
          let arena = Array.make (o.b_off + n + 2) (-1) in
          Array.blit addrs 0 arena o.b_off n;
          (* The model: lanes in order up to the first failing one. *)
          let want_out = Array.make n 0 in
          let rec model_lanes k =
            if k = n then None
            else
              match lane_error ~store:o.b_store addrs.(k) width values.(k) with
              | Some e -> Some e
              | None ->
                let a = addrs.(k) in
                if o.b_store then begin
                  model := model_store !model a width values.(k);
                  let page = a / Page_store.page_bytes in
                  if not (List.mem page !touched) then touched := page :: !touched
                end
                else want_out.(k) <- model_load !model a width;
                model_lanes (k + 1)
          in
          let want = model_lanes 0 in
          let out = Array.make n (-1) in
          let got =
            match
              if o.b_store then Page_store.store_batch t arena ~off:o.b_off ~n ~width values
              else Page_store.load_batch t arena ~off:o.b_off ~n ~width out
            with
            | () -> None
            | exception e -> Some e
          in
          if got <> want then
            QCheck.Test.fail_reportf "batch %d (%s w%d): exception %s, model %s" bi
              (if o.b_store then "store" else "load") width
              (Option.fold ~none:"none" ~some:Printexc.to_string got)
              (Option.fold ~none:"none" ~some:Printexc.to_string want);
          if (not o.b_store) && want = None && out <> want_out then
            QCheck.Test.fail_reportf "batch %d (load w%d): lanes differ from the model"
              bi width)
        ops;
      Page_store.touched_pages t = List.length !touched
      && words_of t = model_words !model)

(* The store's host footprint: a touched page costs its 4 KB of data and
   a block header (plus the padding word a byte string of a multiple of 8
   bytes carries), and the radix directory costs its levels of 4096
   entries: the top level, one mid and one leaf level per touched
   subtree, and the two shared empty levels; the store's record adds a
   few words, and its page memo two fixed arrays of [memo_slots]. *)
let test_page_store_footprint () =
  let s = Page_store.create () in
  let pages_per_subtree = 32 in
  let subtrees = [ 0x10; (3 lsl 24) lor 0x10 ] in
  List.iter
    (fun base ->
      for p = 0 to pages_per_subtree - 1 do
        Page_store.store s ((base + p) * Page_store.page_bytes) (p + 1)
      done)
    subtrees;
  let n = Page_store.touched_pages s in
  check Alcotest.int "pages touched" (pages_per_subtree * List.length subtrees) n;
  let level_words = 4096 + 1 in
  let levels = 1 + (2 * List.length subtrees) + 2 in
  let record_words = 16 + (2 * (Page_store.memo_slots + 1)) in
  let bound =
    (n * ((Page_store.page_bytes / 8) + 2)) + (levels * level_words) + record_words
  in
  let words = Obj.reachable_words (Obj.repr s) in
  if words > bound then
    Alcotest.failf "store reaches %d words; %d pages allow %d" words n bound

(* The functional phase's per-lane path: after warm-up, a 32-lane load
   and store over a column mixing memo hits, memo misses across pages
   (including pages in distinct top- and mid-level subtrees) and, for
   loads, never-touched pages must allocate nothing; so must a column
   alternating lane by lane between two pages in one memo slot, each
   lane evicting the other's page. *)
let test_batch_allocates_nothing () =
  let t = Page_store.create () in
  let page_a = 0x10 and page_b = (3 lsl 24) lor 0x10 and page_c = 5 lsl 12 in
  let page_d = page_a + Page_store.memo_slots in
  let untouched = 0x7_0000 in
  let addr page lane = (page * Page_store.page_bytes) + (lane * 8) in
  let stored =
    Array.init 32 (fun lane ->
        match lane mod 8 with
        | 0 | 1 | 2 | 3 -> addr page_a lane (* runs of memo hits *)
        | 4 -> addr page_b lane
        | 5 -> addr page_c lane
        | _ -> addr page_a lane)
  in
  let loaded =
    Array.mapi
      (fun lane a -> if lane mod 7 = 6 then addr untouched lane else a)
      stored
  in
  let off = 3 in
  let column a =
    let arena = Array.make (off + 32) 0 in
    Array.blit a 0 arena off 32;
    arena
  in
  let conflict =
    Array.init 32 (fun lane -> addr (if lane land 1 = 0 then page_a else page_d) lane)
  in
  let stored = column stored and loaded = column loaded in
  let conflict = column conflict in
  let values = Array.init 32 (fun i -> (i * 2654435761) land 0xFFFF_FFFF) in
  let out = Array.make 32 0 in
  let widths = [| 8; 4; 2; 1 |] in
  let run () =
    for i = 0 to Array.length widths - 1 do
      let width = widths.(i) in
      Page_store.store_batch t stored ~off ~n:32 ~width values;
      Page_store.load_batch t loaded ~off ~n:32 ~width out;
      Page_store.store_batch t conflict ~off ~n:32 ~width values;
      Page_store.load_batch t conflict ~off ~n:32 ~width out
    done
  in
  run ();
  let pages = Page_store.touched_pages t in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    run ()
  done;
  let words = Gc.minor_words () -. w0 in
  check Alcotest.int "warm-up touched every stored page" 4 pages;
  check Alcotest.int "conflicting lanes read their own page" (values.(31) land 0xFF)
    (Page_store.load_byte_width t (addr page_d 31) ~width:1);
  check Alcotest.int "no page materialized after warm-up" pages
    (Page_store.touched_pages t);
  check (Alcotest.float 0.) "minor words of 1000 batch rounds" 0. words

let suite =
  [
    Alcotest.test_case "vaddr constants" `Quick test_vaddr_constants;
    Alcotest.test_case "vaddr tagging" `Quick test_vaddr_tagging;
    Alcotest.test_case "vaddr alignment" `Quick test_vaddr_alignment;
    Alcotest.test_case "vaddr sectors" `Quick test_vaddr_sectors;
    Alcotest.test_case "page store roundtrip" `Quick test_page_store_roundtrip;
    Alcotest.test_case "page store byte widths" `Quick test_page_store_byte_width;
    Alcotest.test_case "page store golden widths" `Quick test_page_store_golden_widths;
    Alcotest.test_case "page store rejects tags" `Quick test_page_store_rejects_tagged;
    Alcotest.test_case "page store iter words" `Quick test_page_store_iter_words;
    Alcotest.test_case "page store footprint" `Quick test_page_store_footprint;
    Alcotest.test_case "page store batches allocate nothing" `Quick
      test_batch_allocates_nothing;
    Alcotest.test_case "address space reservations" `Quick test_address_space_reservations;
    Alcotest.test_case "address space null guard" `Quick test_address_space_null_guard;
    QCheck_alcotest.to_alcotest prop_tag_roundtrip;
    QCheck_alcotest.to_alcotest prop_tag_rejects_out_of_range;
    QCheck_alcotest.to_alcotest prop_tag_rejects_tagged_input;
    QCheck_alcotest.to_alcotest prop_strip_canonicalizes;
    QCheck_alcotest.to_alcotest prop_align_up_bounds;
    QCheck_alcotest.to_alcotest prop_sector_boundaries;
    QCheck_alcotest.to_alcotest prop_store_load;
    QCheck_alcotest.to_alcotest prop_load_batch_equiv;
    QCheck_alcotest.to_alcotest prop_store_batch_equiv;
    QCheck_alcotest.to_alcotest prop_directory_model;
    QCheck_alcotest.to_alcotest prop_batch_model;
  ]
