(* Workload-level tests: determinism, algorithmic invariants, and the
   paper's cross-technique functional validation at small scale. *)

module W = Repro_workloads
module T = Repro_core.Technique
module R = Repro_core
module Graph = W.Graph
module Workload = W.Workload
module Harness = W.Harness
module E = Repro_experiments
module Pool = Repro_util.Pool
module Stats = Repro_gpu.Stats

let check = Alcotest.check

let tiny_params ?iterations technique =
  { (Workload.default_params technique) with Workload.scale = 0.03; iterations }

(* --- graph generator --------------------------------------------------- *)

(* Every edge as (source, destination), by edge number. *)
let edge_list g =
  let edges = Array.make (Graph.n_edges g) (-1, -1) in
  for v = 0 to g.Graph.n_vertices - 1 do
    for k = g.Graph.out_start.(v) to g.Graph.out_start.(v + 1) - 1 do
      edges.(g.Graph.out_edges.(k)) <- (v, g.Graph.out_dst.(k))
    done
  done;
  edges

let test_graph_deterministic () =
  (* [generate] memoizes its last key, so two calls in a row would
     compare one graph with itself: the second seed evicts the first,
     and the third call regenerates it from scratch. *)
  let a = Graph.generate ~seed:11 ~n_vertices:100 ~n_edges:400 () in
  let c = Graph.generate ~seed:12 ~n_vertices:100 ~n_edges:400 () in
  check Alcotest.bool "different seed differs" true (edge_list a <> edge_list c);
  let b = Graph.generate ~seed:11 ~n_vertices:100 ~n_edges:400 () in
  check Alcotest.bool "regenerated, not the memo entry" true (a != b);
  check Alcotest.bool "same graph" true (a = b)

let test_graph_memo_shares () =
  let a = Graph.generate ~seed:21 ~n_vertices:80 ~n_edges:300 () in
  let b = Graph.generate ~seed:21 ~n_vertices:80 ~n_edges:300 () in
  check Alcotest.bool "a repeated key returns the same graph" true (a == b);
  (* Any field of the key is part of it. *)
  let c = Graph.generate ~seed:21 ~n_vertices:80 ~n_edges:301 () in
  check Alcotest.int "edge count follows the key" 301 (Graph.n_edges c);
  let d = Graph.generate ~seed:21 ~n_vertices:81 ~n_edges:301 () in
  check Alcotest.int "vertex count follows the key" 81 d.Graph.n_vertices

let test_graph_shape () =
  let g = Graph.generate ~seed:3 ~n_vertices:50 ~n_edges:300 () in
  let edges = edge_list g in
  check Alcotest.int "edge count" 300 (Array.length edges);
  Array.iter
    (fun (s, d) ->
      check Alcotest.bool "in range" true (s >= 0 && s < 50 && d >= 0 && d < 50);
      check Alcotest.bool "no self loop" true (s <> d))
    edges;
  check Alcotest.int "degrees sum to edges" 300
    (List.fold_left ( + ) 0 (List.init 50 (Graph.out_degree g)));
  check Alcotest.bool "source has out edges" true (Graph.out_degree g 0 > 0);
  (* CSR order: [edge_list] filled every edge number exactly once (no
     (-1, -1) left above), and each source's edges ascend. *)
  check Alcotest.(list int) "every edge once" (List.init 300 Fun.id)
    (List.sort compare (Array.to_list g.Graph.out_edges));
  for v = 0 to 49 do
    for k = g.Graph.out_start.(v) + 1 to g.Graph.out_start.(v + 1) - 1 do
      check Alcotest.bool "ascending within a source" true
        (g.Graph.out_edges.(k - 1) < g.Graph.out_edges.(k))
    done
  done

let test_graph_reachability () =
  let g = Graph.generate ~seed:5 ~n_vertices:30 ~n_edges:100 () in
  let reach hops = Graph.reachable_within g ~source:0 ~hops in
  check Alcotest.bool "source reachable" true (reach 1).(0);
  (* Round by round: within h + 1 hops is within h hops plus their
     out-neighbours. *)
  let edges = edge_list g in
  for h = 0 to 4 do
    let expected = Array.copy (reach h) in
    Array.iter (fun (s, d) -> if (reach h).(s) then expected.(d) <- true) edges;
    check Alcotest.(array bool) (Printf.sprintf "hop %d" (h + 1)) expected (reach (h + 1))
  done

(* --- registry ----------------------------------------------------------- *)

let test_registry_covers_paper_apps () =
  check Alcotest.int "eleven workloads" 11 (List.length W.Registry.all);
  List.iter
    (fun name ->
      check Alcotest.bool (name ^ " findable") true (W.Registry.find name <> None))
    [ "TRAF"; "GOL"; "STUT"; "GEN"; "RAY"; "GraphChi-vE/BFS"; "GraphChi-vEN/PR" ];
  check Alcotest.bool "unknown rejected" true (W.Registry.find "nope" = None);
  (* Qualified names are unique. *)
  let names = List.map W.Registry.qualified_name W.Registry.all in
  check Alcotest.int "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

(* --- per-workload functional checks -------------------------------------- *)

let instance_of name technique =
  let w = Option.get (W.Registry.find name) in
  let inst = w.Workload.build (tiny_params technique) in
  for i = 0 to inst.Workload.iterations - 1 do
    inst.Workload.run_iteration i
  done;
  inst

let test_workloads_run_and_produce_results () =
  List.iter
    (fun w ->
      let inst = w.Workload.build (tiny_params T.Shared_oa) in
      for i = 0 to inst.Workload.iterations - 1 do
        inst.Workload.run_iteration i
      done;
      let cycles = R.Runtime.cycles inst.Workload.rt in
      check Alcotest.bool (w.Workload.name ^ " simulated time") true (cycles > 0.);
      check Alcotest.bool (w.Workload.name ^ " made virtual calls") true
        (R.Runtime.warp_vcalls inst.Workload.rt > 0))
    W.Registry.all

let test_workload_determinism () =
  let run () =
    let inst = instance_of "GOL" T.Coal in
    (inst.Workload.result (), R.Runtime.checksum inst.Workload.rt)
  in
  check
    (Alcotest.pair Alcotest.int Alcotest.int)
    "identical reruns" (run ()) (run ())

let test_cross_technique_equality_all_workloads () =
  (* The paper's functional validation (Sec. 8), on every app. *)
  ignore (E.Sweep.exec ~scale:0.03 ~iterations:2 ~columns:E.Sweep.paper_columns ())

(* --- overlapped replay ----------------------------------------------------- *)

(* A launch spawns the replay helper only when it has more warps than the
   resident slots, which few launches do at these small scales under the
   default config. One SM of two resident warps is fewer slots than
   TRAF's largest launch has warps even at scale 0.01, so the helper
   engages here as it does at scale 1.0. *)
let few_slots =
  Some { Repro_gpu.Config.default with Repro_gpu.Config.n_sms = 1; max_warps_per_sm = 2 }

(* Everything replay produces for one run, with sampling and the ring on,
   read inside or outside a helper scope, [first] of the four first (each
   read must wait for replay on its own); plus the most compute domains
   seen live after an iteration. *)
let replay_outputs ?pages ?(first = 0) name ~scoped =
  let w = Option.get (W.Registry.find name) in
  let telemetry =
    { Repro_gpu.Telemetry.window = Some 512; trace = true; trace_capacity = 1 lsl 16 }
  in
  let inst =
    w.Workload.build
      { (tiny_params T.Cuda) with
        Workload.telemetry = Some telemetry; pages; config = few_slots }
  in
  let rt = inst.Workload.rt in
  R.Runtime.reset_stats rt;
  let live = ref 0 in
  let run () =
    for i = 0 to inst.Workload.iterations - 1 do
      inst.Workload.run_iteration i;
      live := max !live (Pool.live_domains ())
    done;
    let stats = lazy (Stats.to_raw (R.Runtime.stats rt))
    and timeline = lazy (List.map Stats.to_raw (R.Runtime.kernel_timeline rt))
    and windows = lazy (List.map (Array.map Stats.to_raw) (R.Runtime.window_timeline rt))
    and dump = lazy (R.Runtime.telemetry_dump rt) in
    (match first with
     | 0 -> ignore (Lazy.force stats)
     | 1 -> ignore (Lazy.force timeline)
     | 2 -> ignore (Lazy.force windows)
     | _ -> ignore (Lazy.force dump));
    (Lazy.force stats, Lazy.force timeline, Lazy.force windows, Lazy.force dump)
  in
  let out = if scoped then Pool.Helper.scope run else run () in
  (out, !live)

let test_overlap_invisible () =
  List.iter
    (fun (name, pages, first) ->
      let (stats, timeline, windows, dump), live =
        replay_outputs ?pages ~first name ~scoped:true
      in
      let (stats', timeline', windows', dump'), live' =
        replay_outputs ?pages name ~scoped:false
      in
      let name =
        Printf.sprintf "%s%s, read %d first" name
          (if pages = None then "" else " translated")
          first
      in
      let eq what a b = check Alcotest.bool (name ^ ": " ^ what ^ " equal") true (a = b) in
      eq "stats" stats stats';
      eq "timeline" timeline timeline';
      eq "window rows" windows windows';
      eq "ring events" dump dump';
      check Alcotest.bool (name ^ ": launches in the timeline") true (List.length timeline > 1);
      check Alcotest.int (name ^ ": inline takes no helper") 1 live';
      (* Only a host with a spare core gets a helper. *)
      check Alcotest.int (name ^ ": overlapped takes a helper")
        (if Pool.available_workers () > 1 then 2 else 1)
        live)
    [
      ("TRAF", None, 0);
      ("TRAF", None, 1);
      ("TRAF", None, 2);
      ("TRAF", None, 3);
      ("GOL", None, 0);
      ("TRAF", Some Repro_vm.Policy.Coalesce, 0);
    ]

(* --- telemetry only observes ------------------------------------------------ *)

(* On real workloads, translated or not, the event ring and the window
   sampler never move the measurement: cycles, the heap checksum and
   every counter equal the run with telemetry off. The ring holds the
   whole run, so no event is dropped. *)
let test_telemetry_invisible () =
  List.iter
    (fun (name, pages) ->
      let w = Option.get (W.Registry.find name) in
      let run telemetry =
        Harness.run w
          { (Workload.default_params T.Cuda) with
            Workload.scale = 0.02; telemetry; pages }
      in
      let off = run None in
      check Alcotest.bool (name ^ ": walks only when translated") true
        (Stats.tlb_walks off.Harness.stats > 0 = (pages <> None));
      List.iter
        (fun (mode, window, trace) ->
          let r =
            run
              (Some
                 { Repro_gpu.Telemetry.window; trace; trace_capacity = 1 lsl 18 })
          in
          let label =
            Printf.sprintf "%s pages=%s %s" name
              (Option.fold ~none:"none" ~some:Repro_vm.Policy.name pages)
              mode
          in
          check Alcotest.bool (label ^ ": cycles bit-equal") true
            (Int64.equal
               (Int64.bits_of_float off.Harness.cycles)
               (Int64.bits_of_float r.Harness.cycles));
          check Alcotest.int (label ^ ": checksum") off.Harness.checksum
            r.Harness.checksum;
          check Alcotest.bool (label ^ ": stats equal") true
            (Stats.to_raw off.Harness.stats = Stats.to_raw r.Harness.stats);
          Option.iter
            (fun (d : Repro_gpu.Telemetry.dump) ->
              check Alcotest.int (label ^ ": nothing dropped") 0
                d.Repro_gpu.Telemetry.dropped;
              check Alcotest.bool (label ^ ": events recorded") true
                (Array.length d.Repro_gpu.Telemetry.events > 0))
            r.Harness.trace)
        [ ("ring", None, true); ("sampler", Some 512, false); ("both", Some 512, true) ])
    [
      ("TRAF", None);
      ("TRAF", Some Repro_vm.Policy.Coalesce);
      ("GOL", None);
      ("GOL", Some Repro_vm.Policy.Coalesce);
    ]

(* TRAF, noting the most compute domains live after any iteration. *)
let traf_noting_live () =
  let seen = Atomic.make 0 in
  let rec note n =
    let m = Atomic.get seen in
    if n > m && not (Atomic.compare_and_set seen m n) then note n
  in
  let w = Option.get (W.Registry.find "TRAF") in
  let w =
    {
      w with
      Workload.build =
        (fun p ->
          let inst = w.Workload.build p in
          {
            inst with
            Workload.run_iteration =
              (fun i ->
                inst.Workload.run_iteration i;
                note (Pool.live_domains ()));
          });
    }
  in
  (w, seen)

(* Each run opens and closes its own scope; a helper that outlived one
   would reach OCaml's domain cap well before the last run. *)
let test_sequential_runs_join_helpers () =
  let w, seen = traf_noting_live () in
  let p =
    { (tiny_params ~iterations:1 T.Cuda) with Workload.scale = 0.01; config = few_slots }
  in
  for _ = 1 to 150 do
    ignore (Harness.run w p)
  done;
  check Alcotest.int "a helper ran" (min 2 (Pool.available_workers ())) (Atomic.get seen);
  check Alcotest.int "no live helper" 1 (Pool.live_domains ())

(* Pool workers that fill the budget leave no core for a helper. *)
let test_no_helper_inside_full_pool () =
  let w, seen = traf_noting_live () in
  let jobs = Pool.available_workers () in
  let p =
    { (tiny_params ~iterations:2 T.Cuda) with Workload.scale = 0.01; config = few_slots }
  in
  Pool.map ~jobs ~f:(fun () -> ignore (Harness.run w p)) (Array.make (2 * jobs) ())
  |> Array.iter (function Ok () -> () | Error e -> raise e);
  check Alcotest.int "live domains never above the pool" jobs (Atomic.get seen)

(* What a GraphChi build leaves behind: its placement, heap checksum and
   result after two iterations. *)
let graphchi_cell (name, technique, seed, scale) =
  let w = Option.get (W.Registry.find name) in
  let inst =
    w.Workload.build
      { (tiny_params ~iterations:2 technique) with Workload.seed; scale }
  in
  for i = 0 to inst.Workload.iterations - 1 do
    inst.Workload.run_iteration i
  done;
  let rt = inst.Workload.rt in
  ( Array.map
      (fun (ptr, typ) -> (ptr, R.Registry.type_id typ))
      (R.Runtime.allocations rt),
    R.Runtime.checksum rt,
    inst.Workload.result () )

let test_graphchi_memo_reuse () =
  let cell = ("GraphChi-vE/PR", T.type_pointer, 42, 0.03) in
  let first = graphchi_cell cell in
  let same label = check Alcotest.bool label true (graphchi_cell cell = first) in
  same "built twice";
  ignore (graphchi_cell ("GraphChi-vE/PR", T.type_pointer, 7, 0.03));
  same "after another seed";
  ignore (graphchi_cell ("GraphChi-vEN/BFS", T.Cuda, 42, 0.05));
  same "after another scale"

let test_graphchi_parallel_builds () =
  (* Alternating keys, so the two domains keep replacing each other's
     memo entry while they build. *)
  let cells =
    [|
      ("GraphChi-vE/BFS", T.Cuda, 42, 0.03);
      ("GraphChi-vEN/CC", T.Shared_oa, 9, 0.03);
      ("GraphChi-vE/PR", T.Coal, 42, 0.04);
      ("GraphChi-vEN/PR", T.type_pointer, 9, 0.03);
      ("GraphChi-vE/CC", T.Concord, 42, 0.03);
      ("GraphChi-vEN/BFS", T.Shared_oa, 42, 0.04);
    |]
  in
  let sequential = Array.map graphchi_cell cells in
  Pool.map ~jobs:2 ~f:graphchi_cell cells
  |> Array.iteri (fun i r ->
         match r with
         | Ok got ->
           check Alcotest.bool
             (Printf.sprintf "cell %d agrees with its sequential build" i)
             true (got = sequential.(i))
         | Error e -> raise e)

let test_bfs_invariants () =
  let inst = instance_of "GraphChi-vE/BFS" T.Shared_oa in
  let rt = inst.Workload.rt in
  let om = R.Runtime.object_model rt in
  let heap = R.Runtime.heap rt in
  let vertices =
    Array.to_list (R.Runtime.allocations rt)
    |> List.filter (fun (_, typ) -> R.Registry.type_name typ = "Vertex")
    |> List.map fst
  in
  let levels =
    List.map (fun ptr -> R.Object_model.field_load_host om heap ~ptr ~field:0) vertices
  in
  (match levels with
   | source :: _ -> check Alcotest.int "source level" 0 source
   | [] -> Alcotest.fail "no vertices");
  let iterations = inst.Workload.iterations in
  List.iter
    (fun l ->
      check Alcotest.bool "level bounded or unreached" true
        ((l >= 0 && l <= iterations) || l = 0x3FFF_FFFF))
    levels;
  check Alcotest.bool "someone was reached" true
    (List.exists (fun l -> l > 0 && l <= iterations) levels)

let test_cc_invariants () =
  let inst = instance_of "GraphChi-vE/CC" T.Shared_oa in
  let rt = inst.Workload.rt in
  let om = R.Runtime.object_model rt in
  let heap = R.Runtime.heap rt in
  let vertices =
    Array.to_list (R.Runtime.allocations rt)
    |> List.filter (fun (_, typ) -> R.Registry.type_name typ = "Vertex")
    |> List.map fst
  in
  List.iteri
    (fun i ptr ->
      let label = R.Object_model.field_load_host om heap ~ptr ~field:0 in
      check Alcotest.bool "labels only shrink" true (label >= 0 && label <= i))
    vertices

let test_pr_invariants () =
  let inst = instance_of "GraphChi-vE/PR" T.Shared_oa in
  let rt = inst.Workload.rt in
  let om = R.Runtime.object_model rt in
  let heap = R.Runtime.heap rt in
  Array.iter
    (fun (ptr, typ) ->
      if R.Registry.type_name typ = "Vertex" then begin
        let rank = R.Object_model.field_load_host om heap ~ptr ~field:0 in
        check Alcotest.bool "rank at least the base" true (rank >= 15 * 65536 / 100)
      end)
    (R.Runtime.allocations rt)

let test_traffic_conservation () =
  let inst = instance_of "TRAF" T.Shared_oa in
  let rt = inst.Workload.rt in
  let om = R.Runtime.object_model rt in
  let heap = R.Runtime.heap rt in
  (* Every active car sits on the cell its own record claims; monitors
     accumulated nonnegative samples. *)
  Array.iter
    (fun (ptr, typ) ->
      match R.Registry.type_name typ with
      | "Car" ->
        let active = R.Object_model.field_load_host om heap ~ptr ~field:2 in
        let dist = R.Object_model.field_load_host om heap ~ptr ~field:3 in
        check Alcotest.bool "active flag boolean" true (active = 0 || active = 1);
        check Alcotest.bool "distance nonnegative" true (dist >= 0)
      | "Monitor" ->
        let acc = R.Object_model.field_load_host om heap ~ptr ~field:0 in
        check Alcotest.bool "monitor acc nonnegative" true (acc >= 0)
      | _ -> ())
    (R.Runtime.allocations rt)

let test_structure_anchors_fixed () =
  let inst = instance_of "STUT" T.Shared_oa in
  let rt = inst.Workload.rt in
  let om = R.Runtime.object_model rt in
  let heap = R.Runtime.heap rt in
  Array.iter
    (fun (ptr, typ) ->
      if R.Registry.type_name typ = "AnchorNode" then begin
        (* Anchors sit on row 0: py must still be exactly 0. *)
        let py = R.Object_model.field_load_host om heap ~ptr ~field:1 in
        check Alcotest.int "anchor did not move" 0 py
      end)
    (R.Runtime.allocations rt)

let test_gol_matches_serial_reference () =
  (* The agent kernels are race-free, so plain Conway on the initial grid
     must agree with the simulated result exactly. *)
  let w = Option.get (W.Registry.find "GOL") in
  let p = tiny_params ~iterations:3 T.Shared_oa in
  let inst = w.Workload.build p in
  let rt = inst.Workload.rt in
  let om = R.Runtime.object_model rt in
  let heap = R.Runtime.heap rt in
  let cells =
    Array.to_list (R.Runtime.allocations rt)
    |> List.filter (fun (_, typ) -> R.Registry.type_name typ = "Cell")
    |> List.map fst
    |> Array.of_list
  in
  let n = Array.length cells in
  let side = int_of_float (sqrt (float_of_int n)) in
  check Alcotest.int "square grid" n (side * side);
  let initial =
    Array.map (fun ptr -> R.Object_model.field_load_host om heap ~ptr ~field:0) cells
  in
  (* Serial reference. *)
  let state = ref (Array.copy initial) in
  for _ = 1 to inst.Workload.iterations do
    let cur = !state in
    let next = Array.make n 0 in
    for i = 0 to n - 1 do
      let x = i mod side and y = i / side in
      let count = ref 0 in
      for dy = -1 to 1 do
        for dx = -1 to 1 do
          if dx <> 0 || dy <> 0 then begin
            let nx = (x + dx + side) mod side and ny = (y + dy + side) mod side in
            if cur.((ny * side) + nx) = 1 then incr count
          end
        done
      done;
      if cur.(i) = 1 then next.(i) <- (if !count = 2 || !count = 3 then 1 else 0)
      else next.(i) <- (if !count = 3 then 1 else 0)
    done;
    state := next
  done;
  for i = 0 to inst.Workload.iterations - 1 do
    inst.Workload.run_iteration i
  done;
  let final =
    Array.map (fun ptr -> R.Object_model.field_load_host om heap ~ptr ~field:0) cells
  in
  check (Alcotest.array Alcotest.int) "GPU result equals serial Conway" !state final

let test_ray_renders_hits () =
  let inst = instance_of "RAY" T.Shared_oa in
  let art = W.Raytrace.render_ascii inst ~width:96 ~height:96 in
  check Alcotest.bool "some pixels lit" true (String.exists (fun c -> c <> ' ' && c <> '\n') art);
  check Alcotest.int "height rows" 96
    (String.fold_left (fun acc c -> if c = '\n' then acc + 1 else acc) 0 art)

(* --- ubench ---------------------------------------------------------------- *)

let test_ubench_results_match () =
  let n_objects = 2048 and n_types = 4 in
  let _, branch = W.Ubench.run ~iterations:3 ~n_objects ~n_types W.Ubench.Branch in
  List.iter
    (fun t ->
      let _, r = W.Ubench.run ~iterations:3 ~n_objects ~n_types (W.Ubench.Technique t) in
      check Alcotest.int (T.name t ^ " ubench result") branch r)
    T.all_paper;
  (* acc(i) += type(i)+1 per iteration; types cycle 0..3. *)
  let expected = 3 * (n_objects / n_types) * (1 + 2 + 3 + 4) in
  check Alcotest.int "analytic total" expected branch

let test_ubench_divergence_grows () =
  (* Fig. 12b's driver: more types per warp = more serialized subgroups =
     more time, even for the ideal BRANCH variant. *)
  let cycles types =
    fst (W.Ubench.run ~iterations:2 ~n_objects:8192 ~n_types:types W.Ubench.Branch)
  in
  check Alcotest.bool "divergence costs" true (cycles 16 > cycles 2)

let test_render_ascii_rejects_non_ray () =
  let inst = instance_of "GOL" T.Shared_oa in
  Alcotest.check_raises "wrong instance"
    (Invalid_argument "Raytrace.render_ascii: no frame buffer (not a RAY instance)")
    (fun () -> ignore (W.Raytrace.render_ascii inst ~width:8 ~height:8))

let test_seed_changes_results () =
  let w = Option.get (W.Registry.find "GraphChi-vE/CC") in
  let checksum seed =
    let inst = w.Workload.build { (tiny_params T.Shared_oa) with Workload.seed } in
    for i = 0 to inst.Workload.iterations - 1 do
      inst.Workload.run_iteration i
    done;
    R.Runtime.checksum inst.Workload.rt
  in
  check Alcotest.bool "different inputs, different heaps" true
    (checksum 1 <> checksum 2)

let test_ubench_branch_is_fastest () =
  let n_objects = 8192 and n_types = 4 in
  let branch_cycles, _ = W.Ubench.run ~n_objects ~n_types W.Ubench.Branch in
  let cuda_cycles, _ = W.Ubench.run ~n_objects ~n_types (W.Ubench.Technique T.Cuda) in
  check Alcotest.bool "virtual dispatch costs over BRANCH" true
    (cuda_cycles > branch_cycles)

let test_harness_normalization () =
  (* The normalization `repro compare` prints for each run of its
     one-workload sweep against the SharedOA run: normalized_cycles is
     the direct runtime ratio cycles(r)/cycles(baseline) — no double
     inversion — and the exact reciprocal of speedup_vs. *)
  let w = Option.get (W.Registry.find "GEN") in
  let r = Harness.run w (tiny_params ~iterations:1 T.Shared_oa) in
  let base = { r with Harness.cycles = 100. } in
  let fast = { r with Harness.cycles = 50. } in
  let slow = { r with Harness.cycles = 400. } in
  check (Alcotest.float 1e-9) "baseline maps to 1" 1.
    (Harness.normalized_cycles ~baseline:base base);
  check (Alcotest.float 1e-9) "half the cycles -> 0.5" 0.5
    (Harness.normalized_cycles ~baseline:base fast);
  check (Alcotest.float 1e-9) "4x the cycles -> 4" 4.
    (Harness.normalized_cycles ~baseline:base slow);
  check (Alcotest.float 1e-9) "reciprocal of speedup_vs" 1.
    (Harness.normalized_cycles ~baseline:base slow
     *. Harness.speedup_vs ~baseline:base slow)

(* Runs are keyed by their (workload, column) cell: a lookup by
   technique finds its run, every run carries its column's technique,
   and a technique the sweep never ran is absent. *)
let test_harness_find_keyed_runs () =
  let w = Option.get (W.Registry.find "GEN") in
  let workload = W.Registry.qualified_name w in
  let columns = [ E.Sweep.column T.Cuda; E.Sweep.column T.Shared_oa ] in
  let sweep = E.Sweep.exec ~scale:0.03 ~iterations:1 ~workloads:[ w ] ~columns () in
  check Alcotest.bool "finds SHARD" true
    (T.equal T.Shared_oa
       (E.Sweep.get sweep ~workload ~technique:T.Shared_oa).Harness.technique);
  check Alcotest.bool "keys match payloads" true
    (List.for_all2
       (fun (c : E.Sweep.column) (r : Harness.run) ->
         T.equal c.E.Sweep.technique r.Harness.technique)
       columns (E.Sweep.runs sweep));
  check Alcotest.bool "absent technique is Not_found" true
    (match E.Sweep.get sweep ~workload ~technique:T.Coal with
     | _ -> false
     | exception Not_found -> true)

let suite =
  [
    Alcotest.test_case "graph deterministic" `Quick test_graph_deterministic;
    Alcotest.test_case "graph memo shares" `Quick test_graph_memo_shares;
    Alcotest.test_case "harness normalization" `Quick test_harness_normalization;
    Alcotest.test_case "harness keyed runs" `Quick test_harness_find_keyed_runs;
    Alcotest.test_case "graph shape" `Quick test_graph_shape;
    Alcotest.test_case "graph reachability" `Quick test_graph_reachability;
    Alcotest.test_case "registry covers the paper" `Quick test_registry_covers_paper_apps;
    Alcotest.test_case "workloads run" `Slow test_workloads_run_and_produce_results;
    Alcotest.test_case "workload determinism" `Quick test_workload_determinism;
    Alcotest.test_case "cross-technique equality (all apps)" `Slow
      test_cross_technique_equality_all_workloads;
    Alcotest.test_case "overlapped replay is invisible" `Quick test_overlap_invisible;
    Alcotest.test_case "telemetry never moves the measurement" `Quick
      test_telemetry_invisible;
    Alcotest.test_case "sequential runs join their helpers" `Quick
      test_sequential_runs_join_helpers;
    Alcotest.test_case "no helper inside a full pool" `Quick
      test_no_helper_inside_full_pool;
    Alcotest.test_case "graphchi cells reuse the graph" `Quick test_graphchi_memo_reuse;
    Alcotest.test_case "graphchi builds on two domains" `Quick
      test_graphchi_parallel_builds;
    Alcotest.test_case "bfs invariants" `Quick test_bfs_invariants;
    Alcotest.test_case "cc invariants" `Quick test_cc_invariants;
    Alcotest.test_case "pr invariants" `Quick test_pr_invariants;
    Alcotest.test_case "traffic conservation" `Quick test_traffic_conservation;
    Alcotest.test_case "structure anchors fixed" `Quick test_structure_anchors_fixed;
    Alcotest.test_case "gol equals serial reference" `Slow
      test_gol_matches_serial_reference;
    Alcotest.test_case "ray renders hits" `Quick test_ray_renders_hits;
    Alcotest.test_case "ubench results match" `Quick test_ubench_results_match;
    Alcotest.test_case "ubench divergence grows" `Quick test_ubench_divergence_grows;
    Alcotest.test_case "render ascii rejects non-ray" `Quick
      test_render_ascii_rejects_non_ray;
    Alcotest.test_case "seed changes results" `Quick test_seed_changes_results;
    Alcotest.test_case "ubench branch fastest" `Quick test_ubench_branch_is_fastest;
  ]
