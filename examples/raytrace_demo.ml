(* Render the RAY workload's scene as ASCII art and compare the cost of
   its converged virtual calls across techniques — the Sec. 8.1 case
   where Concord shines and COAL's heuristic backs off.

   Run with:  dune exec examples/raytrace_demo.exe *)

module W = Repro_workloads
module T = Repro_core.Technique
module E = Repro_experiments

let () =
  let w = Option.get (W.Registry.find "RAY") in
  let params = { (W.Workload.default_params T.Shared_oa) with W.Workload.scale = 1.0 } in
  let inst = w.W.Workload.build params in
  for i = 0 to inst.W.Workload.iterations - 1 do
    inst.W.Workload.run_iteration i
  done;
  print_endline (W.Raytrace.render_ascii inst ~width:96 ~height:96);
  Printf.printf "rendered in %.0f simulated cycles under SharedOA\n\n"
    (Repro_core.Runtime.cycles inst.W.Workload.rt);

  print_endline "Technique comparison (normalized to SharedOA):";
  let sweep =
    E.Sweep.exec ~scale:params.W.Workload.scale ~workloads:[ w ]
      ~columns:E.Sweep.paper_columns ()
  in
  let base =
    E.Sweep.get sweep ~workload:(W.Registry.qualified_name w) ~technique:T.Shared_oa
  in
  List.iter
    (fun (r : W.Harness.run) ->
      Printf.printf "  %-6s %.2f\n" (T.name r.W.Harness.technique)
        (base.W.Harness.cycles /. r.W.Harness.cycles))
    (E.Sweep.runs sweep);
  print_endline
    "\nEvery thread tests the same object per call (converged sites), so\n\
     COAL leaves them un-instrumented and matches SharedOA, while Concord's\n\
     direct calls come out ahead -- exactly the paper's RAY discussion."
