module W = Repro_workloads
module T = Repro_core.Technique
module R = Repro_core
module Table = Repro_report.Table
module Series = Repro_report.Series

type row = {
  name : string;
  baseline_cycles : float;
  variant_cycles : float;
  delta : float;
}

let make_row name baseline_cycles variant_cycles =
  { name; baseline_cycles; variant_cycles;
    delta = (variant_cycles /. baseline_cycles) -. 1. }

let tp_columns = [ Sweep.column T.type_pointer_hw; Sweep.column T.type_pointer ]

let tp_prototype_vs_hw sweep =
  List.map
    (fun workload ->
      let hw = Sweep.get sweep ~workload ~technique:T.type_pointer_hw in
      let proto = Sweep.get sweep ~workload ~technique:T.type_pointer in
      make_row (Figview.short_group workload) hw.W.Harness.cycles
        proto.W.Harness.cycles)
    (Sweep.workload_names sweep)

(* The padded-index encoding costs an extra multiply at dispatch; model it
   by running the ubench runtime under each vtable-space encoding. The
   cycle difference is tiny by design (Sec. 6.2) — the point of the
   ablation is to show it stays tiny. *)
let tp_encoding ?(n_objects = 65_536) ?(n_types = 8) () =
  let run encoding =
    let rt = R.Runtime.create ~vt_encoding:encoding ~technique:T.type_pointer_hw () in
    let add_impl (env : R.Env.t) objs =
      let v = R.Env.field_load env ~objs ~field:0 in
      R.Env.compute env;
      R.Env.field_store env ~objs ~field:0 (Array.map (fun x -> x + 1) v)
    in
    let types =
      Array.init n_types (fun k ->
          let impl =
            R.Runtime.register_impl rt ~name:(Printf.sprintf "inc%d" k) add_impl
          in
          R.Runtime.define_type rt ~name:(Printf.sprintf "T%d" k) ~field_words:1
            ~slots:[| impl |] ())
    in
    let ptrs = Array.init n_objects (fun i -> R.Runtime.new_obj rt types.(i mod n_types)) in
    let table =
      R.Garray.alloc ~space:(R.Runtime.address_space rt) ~name:"ptrs" ~len:n_objects
    in
    let heap = R.Runtime.heap rt in
    Array.iteri (fun i p -> R.Garray.set table heap i p) ptrs;
    R.Runtime.reset_stats rt;
    for _ = 1 to 3 do
      R.Runtime.launch rt ~n_threads:n_objects (fun env ->
          let tids = Repro_gpu.Warp_ctx.tids env.R.Env.ctx in
          let objs = R.Garray.load table env.R.Env.ctx ~idxs:tids in
          env.R.Env.vcall env ~objs ~slot:0)
    done;
    R.Runtime.cycles rt
  in
  let byte_offset = run Repro_core.Vtable_space.Byte_offset in
  let padded = run (Repro_core.Vtable_space.Padded_index { padded_slots = 4 }) in
  make_row "byte-offset -> padded-index tags" byte_offset padded

type study = { name : string; title : string; rows : row list }

let studies sweep =
  [ { name = "ablation.mmu"; title = "TypePointer: silicon prototype vs hardware MMU";
      rows = tp_prototype_vs_hw sweep };
    { name = "ablation.encoding"; title = "TypePointer: tag encodings (Sec. 6.2)";
      rows = [ tp_encoding () ] } ]

let series s =
  Series.make ~name:s.name ~title:s.title ~group_label:"case"
    (List.concat_map
       (fun (r : row) ->
         [ { Series.group = r.name; series = "baseline"; value = r.baseline_cycles };
           { Series.group = r.name; series = "variant"; value = r.variant_cycles };
           { Series.group = r.name; series = "overhead"; value = r.delta } ])
       s.rows)

let render s =
  let table =
    Table.create
      ~columns:
        [ ("case", Table.Left); ("baseline cycles", Table.Right);
          ("variant cycles", Table.Right); ("overhead", Table.Right) ]
  in
  List.iter
    (fun (r : row) ->
      Table.add_row table
        [ r.name; Table.cell_f ~digits:0 r.baseline_cycles;
          Table.cell_f ~digits:0 r.variant_cycles;
          Printf.sprintf "%+.1f%%" (100. *. r.delta) ])
    s.rows;
  s.title ^ "\n" ^ Table.render table
