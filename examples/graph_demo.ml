(* BFS over a generated power-law graph with polymorphic edges,
   showing the allocator/divergence interaction the GraphChi workloads
   exercise: the same traversal under all five techniques, plus the
   reachability readback.

   Run with:  dune exec examples/graph_demo.exe *)

module W = Repro_workloads
module R = Repro_core
module T = R.Technique
module Stats = Repro_gpu.Stats
module E = Repro_experiments

let () =
  let w = Option.get (W.Registry.find "GraphChi-vE/BFS") in
  let params =
    { (W.Workload.default_params T.Shared_oa) with W.Workload.scale = 0.2 }
  in
  print_endline "BFS over ~2K vertices / 12K polymorphic edges.\n";
  let sweep =
    E.Sweep.exec ~scale:params.W.Workload.scale ~workloads:[ w ]
      ~columns:E.Sweep.paper_columns ()
  in
  let base =
    E.Sweep.get sweep ~workload:(W.Registry.qualified_name w) ~technique:T.Shared_oa
  in
  Printf.printf "%-8s %12s %10s %8s %8s\n" "tech" "cycles" "ld-trans" "L1%" "vs-SHARD";
  List.iter
    (fun (r : W.Harness.run) ->
      Printf.printf "%-8s %12.0f %10d %7.1f%% %8.2f\n"
        (T.name r.W.Harness.technique) r.W.Harness.cycles
        (Stats.load_transactions r.W.Harness.stats)
        (100. *. Stats.l1_hit_rate r.W.Harness.stats)
        (base.W.Harness.cycles /. r.W.Harness.cycles))
    (E.Sweep.runs sweep);

  (* Read the levels back from the simulated heap and histogram them:
     the CPU side of unified memory, reading GPU-written objects. *)
  let inst = w.W.Workload.build params in
  for i = 0 to inst.W.Workload.iterations - 1 do
    inst.W.Workload.run_iteration i
  done;
  let rt = inst.W.Workload.rt in
  let om = R.Runtime.object_model rt in
  let heap = R.Runtime.heap rt in
  let histogram = Hashtbl.create 16 in
  Array.iter
    (fun (ptr, typ) ->
      if R.Registry.type_name typ = "Vertex" then begin
        let level = R.Object_model.field_load_host om heap ~ptr ~field:0 in
        let key = if level > 1_000_000 then -1 else level in
        Hashtbl.replace histogram key (1 + Option.value ~default:0 (Hashtbl.find_opt histogram key))
      end)
    (R.Runtime.allocations rt);
  print_endline "\nBFS frontier sizes (level -> vertices):";
  let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) histogram []) in
  List.iter
    (fun k ->
      let count = Hashtbl.find histogram k in
      if k < 0 then Printf.printf "  unreached  %6d\n" count
      else Printf.printf "  level %2d   %6d  %s\n" k count (String.make (min 60 (count / 8)) '#'))
    keys
