module Vaddr = Repro_mem.Vaddr
module Vec = Repro_util.Vec

type access = Vtable | Vfunc | Other

type t = {
  shadow : Shadow_heap.t;
  oracle : Oracle.t;
  tags_expected : bool;
  counts : int array;         (* cumulative, per Violation.kind_index *)
  kernel_counts : int array;  (* since the last take_kernel_delta *)
  samples : Violation.t Vec.t;
  mutable page_table : Repro_vm.Page_table.t option;
}

(* Violation contexts retained; counting is unbounded. *)
let max_samples = 32

let create ?mutation ?capture ~tags_expected () =
  {
    shadow = Shadow_heap.create ?mutation ();
    oracle = Oracle.create ?capture ();
    tags_expected;
    counts = Array.make Violation.kind_count 0;
    kernel_counts = Array.make Violation.kind_count 0;
    samples = Vec.create ();
    page_table = None;
  }

let shadow t = t.shadow
let oracle t = t.oracle
let set_page_table t table = t.page_table <- table
let page_table t = t.page_table
let mutation t = Shadow_heap.mutation t.shadow
let tags_expected t = t.tags_expected

let report t ~kind ~warp ~lane ~addr ~what ~detail =
  let i = Violation.kind_index kind in
  t.counts.(i) <- t.counts.(i) + 1;
  t.kernel_counts.(i) <- t.kernel_counts.(i) + 1;
  if Vec.length t.samples < max_samples then
    Vec.push t.samples
      { Violation.kind; warp; lane; addr; access = what; detail }

let type_detail r =
  Printf.sprintf "object #%d type %d [%d B]" r.Shadow_heap.index
    r.Shadow_heap.type_id r.Shadow_heap.size

let check_one t ~warp ~lane ~access ~what ~width a =
  let tag = Vaddr.tag_of a in
  let canonical = Vaddr.strip a in
  if tag <> 0 then begin
    if not t.tags_expected then
      report t ~kind:Violation.Non_canonical ~warp ~lane ~addr:a ~what
        ~detail:(Printf.sprintf "tag %d on an MMU without TypePointer" tag)
    else
      match Shadow_heap.find t.shadow canonical with
      | Some r when r.Shadow_heap.tag <> tag ->
        report t ~kind:Violation.Tag_mismatch ~warp ~lane ~addr:a ~what
          ~detail:
            (Printf.sprintf "tag %d but shadow records tag %d for %s" tag
               r.Shadow_heap.tag (type_detail r))
      | _ -> ()
  end;
  (match access with
   | (Vtable | Vfunc) when canonical land (Vaddr.word_bytes - 1) <> 0 ->
     report t ~kind:Violation.Misaligned_vtable ~warp ~lane ~addr:a ~what
       ~detail:""
   | _ -> ());
  let cls = Shadow_heap.classify t.shadow ~addr:canonical ~width in
  (match cls with
   | Shadow_heap.Object _ | Shadow_heap.Unmodelled -> ()
   | Shadow_heap.Dead r ->
     report t ~kind:Violation.Use_after_free ~warp ~lane ~addr:a ~what
       ~detail:(type_detail r)
   | Shadow_heap.Clipped r ->
     report t ~kind:Violation.Out_of_bounds ~warp ~lane ~addr:a ~what
       ~detail:
         (Printf.sprintf "%d B access at offset %d of %s" width
            (canonical - r.Shadow_heap.base) (type_detail r))
   | Shadow_heap.Heap_hole ->
     report t ~kind:Violation.Out_of_bounds ~warp ~lane ~addr:a ~what
       ~detail:"allocator arena, no allocation");
  match t.page_table with
  | None -> ()
  | Some table ->
    (match Repro_vm.Page_table.translate table ~addr:canonical with
     | None ->
       report t ~kind:Violation.Vm_unmapped ~warp ~lane ~addr:a ~what
         ~detail:"no page mapped by the translation model"
     | Some page ->
       let owner = page.Repro_vm.Page_table.owner in
       if owner >= 0 then
         match cls with
         | Shadow_heap.Object r when r.Shadow_heap.type_id <> owner ->
           report t ~kind:Violation.Vm_owner_mismatch ~warp ~lane ~addr:a
             ~what
             ~detail:
               (Printf.sprintf "large page owned by type %d but %s" owner
                  (type_detail r))
         | _ -> ())

let check_access t ~warp ~tids ~access ~what ~width ~addrs =
  Array.iteri
    (fun i a -> check_one t ~warp ~lane:tids.(i) ~access ~what ~width a)
    addrs

let check_tagged_ptrs t ~warp ~tids ~ptrs =
  Array.iteri
    (fun i ptr ->
      let tag = Vaddr.tag_of ptr in
      match Shadow_heap.find t.shadow (Vaddr.strip ptr) with
      | Some r when r.Shadow_heap.tag <> tag ->
        report t ~kind:Violation.Tag_mismatch ~warp ~lane:tids.(i) ~addr:ptr
          ~what:"tp_dispatch"
          ~detail:
            (Printf.sprintf "dispatch via tag %d but shadow records tag %d \
                             for %s"
               tag r.Shadow_heap.tag (type_detail r))
      | _ -> ())
    ptrs

let record_dispatch t ~warp ~tids ~objs ~targets =
  Oracle.record t.oracle ~shadow:t.shadow ~warp ~tids ~objs ~targets

let count t kind = t.counts.(Violation.kind_index kind)

let total t = Array.fold_left ( + ) 0 t.counts

let samples t = Vec.fold_left (fun acc v -> v :: acc) [] t.samples |> List.rev

let take_kernel_delta t =
  let d = Array.copy t.kernel_counts in
  Array.fill t.kernel_counts 0 Violation.kind_count 0;
  d
