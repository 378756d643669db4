(* The Nagel-Schreckenberg traffic model end-to-end: run a handful of
   simulation steps, then print per-technique costs and the traffic state
   read back from unified memory.

   Run with:  dune exec examples/traffic_demo.exe *)

module W = Repro_workloads
module R = Repro_core
module T = R.Technique
module E = Repro_experiments

let () =
  let w = Option.get (W.Registry.find "TRAF") in
  let params =
    { (W.Workload.default_params T.Shared_oa) with
      W.Workload.scale = 0.1;
      iterations = Some 12 }
  in
  let inst = w.W.Workload.build params in
  for i = 0 to inst.W.Workload.iterations - 1 do
    inst.W.Workload.run_iteration i
  done;
  let rt = inst.W.Workload.rt in
  let om = R.Runtime.object_model rt in
  let heap = R.Runtime.heap rt in
  let cars = ref 0 and active = ref 0 and total_dist = ref 0 and moving = ref 0 in
  Array.iter
    (fun (ptr, typ) ->
      if R.Registry.type_name typ = "Car" then begin
        incr cars;
        let is_active = R.Object_model.field_load_host om heap ~ptr ~field:2 = 1 in
        if is_active then incr active;
        let vel = R.Object_model.field_load_host om heap ~ptr ~field:1 in
        if is_active && vel > 0 then incr moving;
        total_dist := !total_dist + R.Object_model.field_load_host om heap ~ptr ~field:3
      end)
    (R.Runtime.allocations rt);
  Printf.printf
    "After %d steps: %d cars (%d active, %d moving), %d cells of total travel.\n\n"
    inst.W.Workload.iterations !cars !active !moving !total_dist;

  print_endline "Cost of the same simulation under each technique:";
  let sweep =
    E.Sweep.exec ~scale:params.W.Workload.scale
      ?iterations:params.W.Workload.iterations ~workloads:[ w ]
      ~columns:E.Sweep.paper_columns ()
  in
  print_string
    (Repro_report.Chart.bars ~unit_label:" cyc"
       (List.map
          (fun (r : W.Harness.run) ->
            (T.name r.W.Harness.technique, r.W.Harness.cycles))
          (E.Sweep.runs sweep)))
