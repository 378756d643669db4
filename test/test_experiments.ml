(* Integration tests over the figure harness: a tiny sweep must produce
   the paper's qualitative shapes. These are the repository's smoke
   alarms — if a change flips who wins, they go off. *)

module E = Repro_experiments
module W = Repro_workloads
module T = Repro_core.Technique
module A = Repro_core.Alloc_family

let check = Alcotest.check

(* A small but non-trivial sweep shared by the shape tests: two memory-
   bound apps plus RAY (the converged outlier). *)
(* Built through the parallel executor (j = 2) — identical to a serial
   sweep by the determinism guarantee, which test_exec checks directly. *)
let sweep =
  lazy
    (let workloads =
       List.filter_map W.Registry.find [ "GOL"; "GraphChi-vE/CC"; "RAY" ]
     in
     E.Sweep.exec ~scale:0.08 ~iterations:2 ~j:2 ~workloads ())

let geomean points series = E.Figview.geomean_of points ~series

let test_sweep_contents () =
  let s = Lazy.force sweep in
  check Alcotest.int "3 workloads x 6 columns" 18 (List.length (E.Sweep.runs s));
  check Alcotest.int "names" 3 (List.length (E.Sweep.workload_names s));
  check Alcotest.int "5 distinct techniques" 5
    (List.length (E.Sweep.techniques s));
  let r = E.Sweep.get s ~workload:"Dynasoar/GOL" ~technique:T.Cuda in
  check Alcotest.bool "lookup works" true (r.W.Harness.cycles > 0.);
  (* [get ~technique] must keep finding the paper's default-family run,
     not the DYNA column (also technique = Cuda). *)
  check Alcotest.bool "default-family lookup" true
    (A.equal r.W.Harness.alloc A.Cuda);
  let d =
    E.Sweep.get_column s ~workload:"Dynasoar/GOL"
      ~column:(E.Sweep.column ~alloc:A.Dyna_soa T.Cuda)
  in
  check Alcotest.bool "dyna column present" true
    (A.equal d.W.Harness.alloc A.Dyna_soa);
  check Alcotest.bool "dyna column is a distinct run" true
    (d.W.Harness.cycles > 0. && d.W.Harness.cycles <> r.W.Harness.cycles)

let test_fig6_shape () =
  let points = E.Fig6.points (Lazy.force sweep) in
  let gm name = geomean points name in
  check (Alcotest.float 1e-9) "SharedOA is the baseline" 1.0 (gm "SHARD");
  check Alcotest.bool "CUDA slower than SharedOA" true (gm "CUDA" < 1.0);
  check Alcotest.bool "TP at least SharedOA" true (gm "TP" >= 0.98);
  check Alcotest.bool "TP beats CUDA" true (gm "TP" > gm "CUDA");
  check Alcotest.bool "COAL beats CUDA" true (gm "COAL" > gm "CUDA")

let test_fig7_shape () =
  let points = E.Fig7.points (Lazy.force sweep) in
  let avg name = geomean points name in
  check (Alcotest.float 0.01) "CUDA instr count = SharedOA" 1.0 (avg "CUDA");
  check Alcotest.bool "COAL adds the most instructions" true
    (avg "COAL" > avg "CON" && avg "COAL" > 1.2);
  check Alcotest.bool "Concord adds instructions" true (avg "CON" > 1.0);
  check Alcotest.bool "TP adds instructions (prototype strips)" true (avg "TP" > 1.0);
  (* The breakdown rows sum to the totals. *)
  List.iter
    (fun (workload, rows) ->
      List.iter
        (fun (tech, (m, c, k)) ->
          let total =
            List.find
              (fun (p : Repro_report.Series.point) ->
                p.Repro_report.Series.group = workload
                && p.Repro_report.Series.series = tech)
              points
          in
          check (Alcotest.float 1e-6) "breakdown sums" total.Repro_report.Series.value
            (m +. c +. k))
        rows)
    (E.Fig7.breakdown (Lazy.force sweep))

let test_fig8_shape () =
  let points = E.Fig8.points (Lazy.force sweep) in
  check Alcotest.bool "TP issues the fewest load transactions" true
    (geomean points "TP" <= geomean points "SHARD");
  check Alcotest.bool "COAL saves transactions vs SharedOA" true
    (geomean points "COAL" <= geomean points "SHARD" +. 0.02)

let test_fig9_shape () =
  let points = E.Fig9.points (Lazy.force sweep) in
  List.iter
    (fun (p : Repro_report.Series.point) ->
      check Alcotest.bool "hit rate in [0,1]" true
        (p.Repro_report.Series.value >= 0. && p.Repro_report.Series.value <= 1.))
    points;
  (* Packing gives SharedOA a better L1 than the default allocator on the
     memory-bound apps (GOL here). *)
  let v tech = Repro_report.Series.value points ~group:"GOL" ~series:tech in
  check Alcotest.bool "SharedOA L1 beats CUDA on GOL" true (v "SHARD" > v "CUDA")

let test_fig1b_shape () =
  let b = E.Fig1b.average (Lazy.force sweep) in
  check Alcotest.bool "shares sum to 1" true
    (abs_float (b.E.Fig1b.vtable_share +. b.E.Fig1b.vfunc_share +. b.E.Fig1b.call_share -. 1.)
     < 1e-6);
  check Alcotest.bool "the vTable* load dominates (paper: 87%)" true
    (b.E.Fig1b.vtable_share > 0.5)

let test_table1_measured () =
  let rows = E.Table1.measure (Lazy.force sweep) in
  let find name = List.find (fun (m : E.Table1.measured) -> m.E.Table1.technique = name) rows in
  let cuda = find "CUDA" and coal = find "COAL" and tp = find "TP" in
  check Alcotest.bool "CUDA's A is object-proportional (diverged)" true
    (cuda.E.Table1.get_vtable_per_kcall > 1000.);
  check Alcotest.bool "COAL's lookup is type-proportional (coalesced)" true
    (coal.E.Table1.get_vtable_per_kcall < cuda.E.Table1.get_vtable_per_kcall /. 2.);
  check (Alcotest.float 1e-9) "TP needs zero accesses for the type" 0.
    tp.E.Table1.get_vtable_per_kcall

let test_table2_rows () =
  let rows = E.Table2.rows (Lazy.force sweep) in
  check Alcotest.int "three rows" 3 (List.length rows);
  List.iter
    (fun (r : E.Table2.row) ->
      check Alcotest.bool "objects positive" true (r.E.Table2.objects > 0);
      check Alcotest.bool "types plausible" true (r.E.Table2.types >= 3 && r.E.Table2.types <= 6);
      check Alcotest.bool "pki positive" true (r.E.Table2.vfunc_pki > 0.))
    rows

(* The figures that run their own column lists, each over GOL at one
   scale so their cells can be compared with the default sweep's. *)
let gol_sweep columns =
  E.Sweep.exec ~scale:0.05 ~workloads:[ Option.get (W.Registry.find "GOL") ]
    ~columns ()

let fig10_gol = lazy (gol_sweep E.Fig10.columns)

let init_gol = lazy (gol_sweep E.Init_bench.columns)

let test_fig10_chunk_sweep () =
  let points = E.Fig10.points (Lazy.force fig10_gol) in
  check Alcotest.int "one point per chunk size" (List.length E.Fig10.chunk_sizes)
    (List.length points);
  List.iter
    (fun (p : E.Fig10.point) ->
      check Alcotest.bool "perf positive" true (p.E.Fig10.perf_vs_cuda > 0.);
      check Alcotest.bool "fragmentation in [0,1)" true
        (p.E.Fig10.fragmentation >= 0. && p.E.Fig10.fragmentation < 1.))
    points;
  (* Fragmentation grows with the chunk size (Fig. 10b's trend). *)
  let frag c =
    (List.find (fun (p : E.Fig10.point) -> p.E.Fig10.chunk_objs = c) points)
      .E.Fig10.fragmentation
  in
  check Alcotest.bool "bigger chunks waste more" true
    (frag 131072 >= frag 512)

let test_fig11_tp_on_cuda () =
  let ge = Option.get (W.Registry.find "GraphChi-vEN/CC") in
  let points =
    E.Fig11.points
      (E.Sweep.exec ~scale:0.08 ~workloads:[ ge ] ~columns:E.Fig11.columns ())
  in
  let v = Repro_report.Series.value points ~group:"GM" ~series:"TP/CUDA" in
  check Alcotest.bool "TypePointer helps without changing the allocator" true (v > 1.0)

let test_fig12_shapes () =
  (* A small object sweep: virtual dispatch must cost over BRANCH, and
     TypePointer must close most of the gap (Fig. 12a). *)
  let points =
    E.Fig12.sweep_for_test ~configs:[ (8192, 4); (32768, 4) ]
  in
  let at variant n =
    (List.find
       (fun (p : E.Fig12.point) -> p.E.Fig12.variant = variant && p.E.Fig12.n_objects = n)
       points)
      .E.Fig12.norm_time
  in
  check Alcotest.bool "CUDA slowest at scale" true
    (at "CUDA" 32768 > at "TP" 32768 && at "CUDA" 32768 > at "BRANCH" 32768);
  check Alcotest.bool "TP between branch and CUDA" true
    (at "TP" 32768 >= at "BRANCH" 32768);
  check Alcotest.bool "slowdown grows with objects" true
    (at "CUDA" 32768 > at "CUDA" 8192)

let test_init_speedup () =
  let rows = E.Init_bench.rows (Lazy.force init_gol) in
  check (Alcotest.float 1e-6) "the 80x initialization gap" 80.
    (E.Init_bench.geomean_speedup rows)

(* A figure's cells are cached under the same keys as the default
   sweep's cells they share, so regenerating one figure after another
   measures each cell once; Fig. 10's COAL cells differ by chunk size. *)
let test_cache_keys () =
  let keys s =
    List.combine (E.Sweep.columns s)
      (List.map
         (fun (o : Repro_exec.Executor.outcome) ->
           Repro_exec.Job.key o.Repro_exec.Executor.job)
         (E.Sweep.outcomes s))
  in
  let default = keys (gol_sweep E.Sweep.default_columns) in
  let cuda = E.Sweep.column T.Cuda
  and dyna = E.Sweep.column ~alloc:A.Dyna_soa T.Cuda in
  List.iter
    (fun (name, s) ->
      List.iter
        (fun c ->
          check Alcotest.string
            (Printf.sprintf "%s %s key" name (E.Sweep.column_name c))
            (List.assoc c default) (List.assoc c (keys s)))
        [ cuda; dyna ])
    [ ("fig11", gol_sweep E.Fig11.columns); ("init", Lazy.force init_gol) ];
  let fig10 = keys (Lazy.force fig10_gol) in
  check Alcotest.string "fig10 CUDA key" (List.assoc cuda default)
    (List.assoc cuda fig10);
  List.iter
    (fun chunk ->
      let key = List.assoc (E.Sweep.column ~chunk_objs:chunk T.Coal) fig10 in
      let field = Printf.sprintf "chunk=%d" chunk in
      check Alcotest.bool (key ^ " carries " ^ field) true
        (List.mem field (String.split_on_char '|' key)))
    E.Fig10.chunk_sizes

(* One memo across sweeps: a job measured once is served to every later
   sweep that names it, and only new jobs run. *)
let test_sweep_memo () =
  let workloads = List.filter_map W.Registry.find [ "GOL" ] in
  let memo = E.Sweep.memo () in
  let exec columns =
    let measured = ref 0 in
    let s =
      E.Sweep.exec ~scale:0.03 ~iterations:1 ~workloads ~memo ~columns
        ~progress:(fun _ -> incr measured) ()
    in
    (s, !measured)
  in
  let paper, n_paper = exec E.Sweep.paper_columns in
  let fig11, n_fig11 = exec E.Fig11.columns in
  let _, n_again = exec E.Fig11.columns in
  check Alcotest.int "paper columns all measured" 5 n_paper;
  check Alcotest.int "fig11 measures only its new columns" 2 n_fig11;
  check Alcotest.int "a repeated sweep measures nothing" 0 n_again;
  let workload = "Dynasoar/GOL" and column = E.Sweep.column T.Cuda in
  check Alcotest.bool "the shared cell is the first sweep's run" true
    (E.Sweep.get_column paper ~workload ~column
     == E.Sweep.get_column fig11 ~workload ~column)

let test_ablation_prototype_vs_hw () =
  let workloads = List.filter_map W.Registry.find [ "GOL"; "RAY" ] in
  let rows =
    E.Ablation.tp_prototype_vs_hw
      (E.Sweep.exec ~scale:0.05 ~workloads ~columns:E.Ablation.tp_columns ())
  in
  check Alcotest.(list string) "one row per workload, in sweep order"
    [ "GOL"; "RAY" ]
    (List.map (fun (r : E.Ablation.row) -> r.E.Ablation.name) rows);
  List.iter
    (fun (r : E.Ablation.row) ->
      check Alcotest.bool (r.E.Ablation.name ^ " cycles positive") true
        (r.E.Ablation.baseline_cycles > 0. && r.E.Ablation.variant_cycles > 0.);
      check Alcotest.bool (r.E.Ablation.name ^ " software masks cost little") true
        (abs_float r.E.Ablation.delta < 0.05))
    rows

let test_ablation_encoding_free () =
  let row = E.Ablation.tp_encoding ~n_objects:4096 ~n_types:4 () in
  check Alcotest.bool "padded-index tags cost (almost) nothing" true
    (abs_float row.E.Ablation.delta < 0.05)

let test_expectations_present () =
  (* The recorded paper numbers stay self-consistent. *)
  check Alcotest.int "five fig6 entries" 5 (List.length E.Expectations.fig6_geomean);
  check (Alcotest.float 1e-9) "fig11 target" 1.18 E.Expectations.fig11_geomean;
  check Alcotest.bool "fig1b share" true (E.Expectations.fig1b_vtable_share > 0.8)

(* The figure table drives [repro figure] and CI's trajectory gate, so
   its keys must cover the committed baseline and its JSON must read
   back keyed as requested. *)
let test_figure_table () =
  let module J = Repro_obs.Json in
  let unique l = List.length (List.sort_uniq compare l) = List.length l in
  let keys = List.map (fun f -> f.E.Figures.key) E.Figures.all in
  check Alcotest.bool "ids unique" true (unique E.Figures.ids);
  check Alcotest.bool "keys unique" true (unique keys);
  let baseline =
    In_channel.with_open_bin "../BENCH_main.json" In_channel.input_all
  in
  (match Result.map (J.member "entries") (J.of_string baseline) with
   | Ok (Some (J.Obj entries)) ->
     List.iter
       (fun (k, _) ->
         check Alcotest.bool ("baseline key " ^ k ^ " has a figure") true
           (List.mem k keys))
       entries
   | _ -> Alcotest.fail "BENCH_main.json has no entries object");
  let source =
    { E.Figures.scale = 0.08; j = 1; cache = false; cache_dir = None;
      columns = E.Sweep.default_columns; progress = ignore;
      memo = E.Sweep.memo (); sweep }
  in
  let sweep_fed = List.filter (fun f -> f.E.Figures.pages) E.Figures.all in
  let json =
    E.Figures.trajectory ~scale:0.08
      (List.map (fun f -> (f, f.E.Figures.series source)) sweep_fed)
  in
  match J.of_string (J.to_string ~pretty:true json) with
  | Error msg -> Alcotest.failf "trajectory does not parse: %s" msg
  | Ok back ->
    check Alcotest.bool "round-trips" true (back = json);
    (match J.member "entries" back with
     | Some (J.Obj entries) ->
       check
         Alcotest.(list string)
         "entries keyed as requested"
         (List.map (fun f -> f.E.Figures.key) sweep_fed)
         (List.map fst entries)
     | _ -> Alcotest.fail "trajectory has no entries object")

let suite =
  [
    Alcotest.test_case "sweep contents" `Slow test_sweep_contents;
    Alcotest.test_case "fig6 shape" `Slow test_fig6_shape;
    Alcotest.test_case "fig7 shape" `Slow test_fig7_shape;
    Alcotest.test_case "fig8 shape" `Slow test_fig8_shape;
    Alcotest.test_case "fig9 shape" `Slow test_fig9_shape;
    Alcotest.test_case "fig1b shape" `Slow test_fig1b_shape;
    Alcotest.test_case "table1 measured" `Slow test_table1_measured;
    Alcotest.test_case "table2 rows" `Slow test_table2_rows;
    Alcotest.test_case "fig10 chunk sweep" `Slow test_fig10_chunk_sweep;
    Alcotest.test_case "fig11 tp on cuda" `Slow test_fig11_tp_on_cuda;
    Alcotest.test_case "fig12 shapes" `Slow test_fig12_shapes;
    Alcotest.test_case "init speedup" `Quick test_init_speedup;
    Alcotest.test_case "cache keys pinned" `Quick test_cache_keys;
    Alcotest.test_case "sweep memo measures each job once" `Quick test_sweep_memo;
    Alcotest.test_case "ablation: tag encoding free" `Quick test_ablation_encoding_free;
    Alcotest.test_case "ablation: prototype vs hardware MMU" `Quick
      test_ablation_prototype_vs_hw;
    Alcotest.test_case "expectations recorded" `Quick test_expectations_present;
    Alcotest.test_case "figure table" `Slow test_figure_table;
  ]
