(* The sweep workloads: the real [repro sweep] path ([Sweep.exec]) over
   workloads whose [build], [run_iteration] and [result] closures are
   wrapped to time each layer from outside.

   A pass is one whole matrix. Cells run one compute iteration each:
   the full paper-scale heap is built (so working sets relative to the
   simulated caches are the paper's), but a whole-iteration matrix at
   scale 1.0 takes ~45 s here, more than one run may measure.
   [check_scale1] runs the same wrapped path with whole iterations and
   holds it to BENCH_scale1.json. *)

module E = Repro_experiments
module W = Repro_workloads
module R = Repro_core
module G = Repro_gpu
module Vm = Repro_vm.Vm
module Json = Repro_obs.Json

type spec = {
  name : string;
  scale : float;
  columns : E.Sweep.column list;
  pages : Repro_vm.Policy.t option;
}

let iterations = 1

let paper_matrix =
  {
    name = "paper-matrix";
    scale = 1.0;
    columns = List.map (fun t -> E.Sweep.column t) R.Technique.all_paper;
    pages = None;
  }

(* CUDA walks the page table constantly; SHARD and DYNA get promoted to
   large pages — two different uses of the TLB. *)
let translated =
  {
    name = "translated";
    scale = 0.5;
    columns =
      [
        E.Sweep.column R.Technique.Cuda;
        E.Sweep.column R.Technique.Shared_oa;
        E.Sweep.column ~alloc:R.Alloc_family.Dyna_soa R.Technique.Cuda;
      ];
    pages = Some Repro_vm.Policy.Coalesce;
  }

let now = Common.now

(* Per-pass tallies the wrapped closures add to. Words and re-time
   figures are only gathered on traced passes. *)
type acc = {
  mutable build_s : float;
  mutable iter_words : float;
  mutable path_words : float;  (* re-time of the cell's own replay path *)
  mutable fused_words : float;
  mutable shape_words : float;
  mutable hierarchy_words : float;
  mutable cells : int;
  mutable launches : int;
  mutable instrs : int;
  mutable sealed : int;
  mutable unique : int;
  mutable sealed_instrs : int;
  mutable unique_instrs : int;
  mutable problems : string list;
}

let new_acc () =
  {
    build_s = 0.; iter_words = 0.; path_words = 0.; fused_words = 0.;
    shape_words = 0.; hierarchy_words = 0.; cells = 0; launches = 0; instrs = 0;
    sealed = 0; unique = 0; sealed_instrs = 0; unique_instrs = 0; problems = [];
  }

let timed_words f =
  let t0 = now () in
  let w0 = Gc.minor_words () in
  let r = f () in
  let w = Gc.minor_words () -. w0 in
  (r, t0, now (), w)

(* Re-timing state for one traced cell: fresh memory hierarchies that
   replay the cell's retained launches in launch order, so they see the
   cache state the real replay saw (cold at the cell's first launch, as
   [Runtime.reset_stats] leaves the device). *)
type retime = {
  cfg : G.Config.t;
  fused : G.Mem_path.t;
  shape : G.Mem_path.t;
  plain : G.Mem_path.t option;  (* [Sm.run], no translation *)
  mapped : G.Mem_path.t option;  (* [Sm.run] with a mirror of the runtime's vm *)
  stats : G.Stats.t;
  mutable mirrored : Vm.t option;
  mutable fused_cycles : float;
  mutable mapped_cycles : float;
}

let no_instrs = G.Trace.create ()

let retime_create acc ~translated cfg =
  let fused, _, _, words = timed_words (fun () -> G.Mem_path.create cfg) in
  acc.hierarchy_words <- acc.hierarchy_words +. words;
  let extra () = if translated then Some (G.Mem_path.create cfg) else None in
  {
    cfg; fused; shape = G.Mem_path.create cfg; plain = extra (); mapped = extra ();
    stats = G.Stats.create (); mirrored = None; fused_cycles = 0.; mapped_cycles = 0.;
  }

(* The runtime rebuilds its translation model when the heap layout
   changes; mirror each new one with a fresh (cold) copy so re-timing
   never touches the live TLBs. *)
let mirror_vm rt live =
  match (live, rt.mapped) with
  | Some v, Some mp when not (Option.fold ~none:false ~some:(fun m -> m == v) rt.mirrored) ->
    rt.mirrored <- Some v;
    G.Mem_path.set_vm mp
      (Some (Vm.create ~config:(Vm.config v) ~n_sms:(Vm.n_sms v) ~table:(Vm.table v) ()))
  | _ -> ()

let retime acc rt spans ~cell launches =
  let replay name mp f =
    let cycles, t0, t1, words =
      timed_words (fun () ->
          List.fold_left (fun c traces -> c +. f rt.cfg mp ~stats:rt.stats ~traces) 0. launches)
    in
    Spans.record spans ~parent:cell name ~t0 ~t1;
    (cycles, words)
  in
  let c, w = replay "replay.fused" rt.fused G.Sm.run_fused in
  rt.fused_cycles <- rt.fused_cycles +. c;
  acc.fused_words <- acc.fused_words +. w;
  (* The same launches with every warp's trace emptied: what a replay
     allocates for the launch's shape alone, with no instruction run. *)
  let shaped = List.map (fun traces -> Array.map (fun _ -> no_instrs) traces) launches in
  let _, t0, t1, w =
    timed_words (fun () ->
        List.iter
          (fun traces -> ignore (G.Sm.run_fused rt.cfg rt.shape ~stats:rt.stats ~traces))
          shaped)
  in
  Spans.record spans ~parent:cell "replay.shape" ~t0 ~t1;
  acc.shape_words <- acc.shape_words +. w;
  match (rt.plain, rt.mapped) with
  | Some plain, Some mapped ->
    let sm_run cfg mp ~stats ~traces = G.Sm.run cfg mp ~stats ~traces in
    ignore (replay "replay.run" plain sm_run);
    let c, w = replay "replay.vm" mapped sm_run in
    rt.mapped_cycles <- rt.mapped_cycles +. c;
    acc.path_words <- acc.path_words +. w
  | _ -> acc.path_words <- acc.path_words +. w

(* The cell whose finish is still open: Harness snapshots the run and
   checksums the heap after the last iteration, which the next job's
   start (or the sweep's return) closes. *)
type open_cell = { cell : Spans.span option; from : float }

let wrap spec ~seed ~trace ~spans ~pass acc pending (w : W.Workload.t) =
  let translated = spec.pages <> None in
  let build p =
    let technique = p.W.Workload.technique in
    let alloc =
      Option.value p.W.Workload.alloc ~default:(R.Alloc_family.default_for technique)
    in
    let column = R.Alloc_family.column_name technique alloc in
    let key = W.Registry.qualified_name w ^ "/" ^ column in
    let cell =
      if trace then Some (Spans.start spans ~parent:pass ~args:[ ("cell", Json.String key) ] "cell")
      else None
    in
    let parent = Option.fold ~none:0 ~some:Spans.id cell in
    let t0 = now () in
    (* [Sweep.exec] has no seed parameter: the benchmark's seed reaches
       the workload here. *)
    let inst = w.W.Workload.build { p with W.Workload.seed } in
    let t1 = now () in
    acc.build_s <- acc.build_s +. (t1 -. t0);
    acc.cells <- acc.cells + 1;
    if trace then Spans.record spans ~parent "build" ~t0 ~t1;
    let dev = R.Runtime.device inst.W.Workload.rt in
    let rt = if trace then Some (retime_create acc ~translated (G.Device.config dev)) else None in
    let last = ref t1 in
    let run_iteration i =
      G.Device.retain_traces dev trace;
      let (), t0, t1, words = timed_words (fun () -> inst.W.Workload.run_iteration i) in
      last := t1;
      match rt with
      | None -> ()
      | Some rt ->
        Spans.record spans ~parent ~args:[ ("i", Json.Int i) ] "iteration" ~t0 ~t1;
        acc.iter_words <- acc.iter_words +. words;
        let launches = G.Device.retained_traces dev in
        G.Device.retain_traces dev false;
        acc.launches <- acc.launches + List.length launches;
        List.iter
          (Array.iter (fun t -> acc.instrs <- acc.instrs + G.Trace.instruction_total t))
          launches;
        mirror_vm rt (R.Runtime.vm inst.W.Workload.rt);
        retime acc rt spans ~cell:parent launches;
        last := now ()
    in
    let result () =
      let r = inst.W.Workload.result () in
      (match rt with
       | None -> ()
       | Some rt ->
         let sealed, unique, si, ui = G.Device.interning_tallies dev in
         acc.sealed <- acc.sealed + sealed;
         acc.unique <- acc.unique + unique;
         acc.sealed_instrs <- acc.sealed_instrs + si;
         acc.unique_instrs <- acc.unique_instrs + ui;
         (* The re-time of the cell's own replay path must reproduce its
            cycles bit for bit, or it is not measuring that replay. *)
         let retimed = if translated then rt.mapped_cycles else rt.fused_cycles in
         let actual = R.Runtime.cycles inst.W.Workload.rt in
         if not (Float.equal retimed actual) then
           acc.problems <-
             Printf.sprintf "%s: re-timed replay gave %h cycles, the run %h" key retimed actual
             :: acc.problems);
      pending := Some { cell; from = !last };
      r
    in
    { inst with W.Workload.run_iteration; result }
  in
  { w with W.Workload.build }

type pass = {
  wall : float;
  probe_s : float;  (* host probes between jobs, inside [wall] *)
  calib : Calib.t;
  acc : acc;
  cell_walls : float list;
  runs : W.Harness.run list;
  sweep : E.Sweep.t option;
  error : string option;
}

let instrs runs =
  List.fold_left
    (fun a (r : W.Harness.run) -> a + G.Stats.total_instructions r.W.Harness.stats)
    0 runs

let run_pass ?(iterations = Some iterations) spec ~seed ~trace ~spans ~root =
  let acc = new_acc () in
  let pass = if trace then Some (Spans.start spans ~parent:root "pass") else None in
  let pass_id = Option.fold ~none:0 ~some:Spans.id pass in
  let pending = ref None in
  let close t =
    Option.iter
      (fun o ->
        Option.iter
          (fun cell ->
            Spans.record spans ~parent:(Spans.id cell) "finish" ~t0:o.from ~t1:t;
            Spans.stop cell)
          o.cell)
      !pending;
    pending := None
  in
  let workloads =
    List.map
      (wrap spec ~seed ~trace ~spans ~pass:pass_id acc pending)
      W.Registry.all
  in
  (* Before its own timer starts, every job gets a collected heap —
     otherwise whether the previous cell's heap is still uncollected when
     the next one peaks decides the peak RSS (it varied 200-270 MB between
     seeds at scale 1.0; with this, 122-127 MB) — and the host is probed. *)
  let calib = Calib.create () and probe_s = ref 0. in
  let between_jobs () =
    let t0 = now () in
    close t0;
    Gc.full_major ();
    probe_s := !probe_s +. Calib.probe calib;
    if trace then Spans.record spans ~parent:pass_id "between_jobs" ~t0 ~t1:(now ())
  in
  Gc.full_major ();
  let t0 = now () in
  let result =
    match
      E.Sweep.exec ~scale:spec.scale ?iterations ~columns:spec.columns ?pages:spec.pages ~workloads
        ~progress:(fun _ -> between_jobs ())
        ()
    with
    | s -> Ok s
    | exception Failure msg -> Error msg
  in
  let t1 = now () in
  close t1;
  Option.iter Spans.stop pass;
  (* A last probe, outside the pass's time, closes the last cell's
     stretch. *)
  ignore (Calib.probe calib);
  match result with
  | Ok s ->
    {
      wall = t1 -. t0;
      probe_s = !probe_s;
      calib;
      acc;
      cell_walls =
        List.map (fun (o : Repro_exec.Executor.outcome) -> o.wall_s) (E.Sweep.outcomes s);
      runs = E.Sweep.runs s;
      sweep = Some s;
      error = None;
    }
  | Error msg ->
    {
      wall = t1 -. t0; probe_s = !probe_s; calib; acc; cell_walls = []; runs = []; sweep = None;
      error = Some msg;
    }

let cell_key (r : W.Harness.run) =
  r.W.Harness.workload ^ "/" ^ R.Alloc_family.column_name r.W.Harness.technique r.W.Harness.alloc

let median_of f l = Stat.median (Array.of_list (List.map f l))

(* Host factors ({!Calib}): a pass's is the median of its probes; a
   cell's, that of the probes just before and after it. Host-normalised
   seconds are seconds divided by a factor. *)
let pass_factor p = Calib.factor p.calib

let cell_factor p = Calib.between (Calib.factors p.calib)

(* The pass's own time excludes its probes. *)
let work ?(pass_factor = pass_factor) p = (p.wall -. p.probe_s) /. pass_factor p

(* The end-to-end metrics over untraced passes. *)
let end_to_end ~pass_factor ~cell_factor ps =
  let work = work ~pass_factor in
  let walls =
    List.concat_map
      (fun p ->
        let f = cell_factor p in
        List.mapi (fun i w -> w /. f i) p.cell_walls)
      ps
    |> Array.of_list
  in
  [
    ("setup_s", median_of (fun p -> p.acc.build_s /. pass_factor p) ps);
    ("sim_minstr_per_s", median_of (fun p -> float_of_int (instrs p.runs) /. work p /. 1e6) ps);
    ("ops_per_s", median_of (fun p -> float_of_int (List.length p.runs) /. work p) ps);
    ("op_p50_ms", Stat.percentile walls 50. *. 1e3);
    ("op_tail_ms", Stat.percentile walls Common.tail_pct *. 1e3);
    ("peak_rss_mb", Common.peak_rss_mb 0);
  ]

(* --- Whole iterations against BENCH_scale1.json ------------------------ *)

let scale1_path = "BENCH_scale1.json"

(* Mean absolute error of the five Fig. 6 GM columns against the
   paper's numbers. *)
let fig6_gm_abs_err sweep =
  let points = E.Fig6.points sweep in
  let errs =
    List.map
      (fun (series, paper) ->
        Float.abs (Repro_report.Series.value points ~group:"GM" ~series -. paper))
      E.Expectations.fig6_geomean
  in
  Common.sum Fun.id errs /. float_of_int (List.length errs)

(* One paper-matrix pass with every workload's own iteration count, at
   the default seed: its per-cell cycles and instructions must equal the
   committed scale-1.0 record. Returns the problems found. *)
let check_scale1 () =
  let recorded =
    let decode =
      Json.Decode.(
        run
          (field "jobs"
             (list (fun j -> (field "job" string j, (field "instructions" int j, field "cycles" float j))))))
    in
    match Result.bind (Json.of_string (In_channel.with_open_bin scale1_path In_channel.input_all)) decode with
    | Ok l -> l
    | Error e -> failwith (scale1_path ^ ": " ^ e)
  in
  let seed = (W.Workload.default_params R.Technique.Cuda).W.Workload.seed in
  let p =
    run_pass ~iterations:None paper_matrix ~seed ~trace:false ~spans:(Spans.create ~tid:1) ~root:0
  in
  match p.sweep with
  | None -> ([ Option.value p.error ~default:"the sweep failed" ], None)
  | Some s ->
    let problems =
      List.filter_map
        (fun (r : W.Harness.run) ->
          let key = cell_key r in
          let got = (G.Stats.total_instructions r.W.Harness.stats, r.W.Harness.cycles) in
          match List.assoc_opt key recorded with
          | None -> Some (key ^ ": not in " ^ scale1_path)
          | Some (i, c) when i = fst got && Float.equal c (snd got) -> None
          | Some (i, c) ->
            Some
              (Printf.sprintf "%s: %d instructions, %.17g cycles; %s has %d, %.17g" key (fst got)
                 (snd got) scale1_path i c))
        p.runs
    in
    let missing = List.length recorded - List.length p.runs in
    ( (if missing > 0 then [ Printf.sprintf "%d recorded cells did not run" missing ] else [])
      @ problems,
      Some (List.length p.runs, fig6_gm_abs_err s, p.wall) )

let run spec ~seed ~seconds ~trace ~digests =
  let spans = Spans.create ~tid:1 in
  let root = Spans.start spans ~args:[ ("seed", Json.Int seed) ] spec.name in
  let start = now () in
  let plain = ref [] and traced = ref [] in
  let elapsed () = now () -. start in
  (* Untraced: at least two passes (set-up is measured once per pass),
     then more while another fits in [seconds]. Traced: one untraced
     reference pass, then traced ones the same way. *)
  let rec go () =
    let tracing = trace && !plain <> [] in
    let p = run_pass spec ~seed ~trace:tracing ~spans ~root:(Spans.id root) in
    if tracing then traced := p :: !traced else plain := p :: !plain;
    let enough = if trace then !traced <> [] else List.length !plain >= 2 in
    if p.error = None && ((not enough) || elapsed () +. p.wall <= float_of_int seconds) then go ()
  in
  go ();
  Spans.stop root;
  let passes = List.rev !plain @ List.rev !traced in
  (* Correctness: every pass must succeed (Sweep.exec checks cross-column
     equality), reproduce the first pass's stats exactly, and at the
     reference seed match the committed digests. *)
  let failed = ref 0 and problems = ref [] in
  let fail n msg =
    failed := !failed + n;
    problems := msg :: !problems
  in
  let n_cells = List.length W.Registry.all * List.length spec.columns in
  let reference = ref None in
  List.iter
    (fun p ->
      List.iter (fun m -> fail 1 m) p.acc.problems;
      match p.error with
      | Some msg -> fail n_cells msg
      | None -> (
        let ds = List.map (fun r -> (cell_key r, Digests.of_stats r.W.Harness.stats)) p.runs in
        match !reference with
        | None -> reference := Some ds
        | Some first ->
          List.iter2
            (fun (k, a) (_, b) -> if a <> b then fail 1 (k ^ ": stats differ between passes"))
            first ds))
    passes;
  let digests_seen = Option.value ~default:[] !reference in
  let mismatches, unchecked = Digests.check digests ~seed ~workload:spec.name digests_seen in
  List.iter (fail 1) mismatches;
  let attempted = n_cells * List.length passes in
  let ok = List.filter (fun p -> p.error = None) in
  let plain = ok (List.rev !plain) and traced = ok (List.rev !traced) in
  let metrics, notes =
    match (trace, plain, traced) with
    | false, (_ :: _ as ps), _ ->
      let n = List.length (List.concat_map (fun p -> p.cell_walls) ps) in
      ( end_to_end ~pass_factor ~cell_factor ps,
        [
          ("passes", Json.Int (List.length ps));
          ("pass_wall_s", Json.List (List.map (fun p -> Json.Float p.wall) ps));
          ("host_factor", Json.List (List.map (fun p -> Json.Float (pass_factor p)) ps));
          ( "raw",
            Common.values_note
              (end_to_end ~pass_factor:(fun _ -> 1.) ~cell_factor:(fun _ _ -> 1.) ps) );
          ("op", Json.String "sweep cell (build + iterations + finish)");
          ("op_samples", Json.Int n);
          ("op_tail_pct", Json.Float Common.tail_pct);
          ("op_beyond_tail", Json.Int (Stat.beyond ~n Common.tail_pct));
          ("op_tail_supported", Common.tail_note n);
        ] )
    | true, [ ref_pass ], (_ :: _ as ts) ->
      let rows =
        Common.write_trace ~path:(Common.trace_path spec.name)
          (Spans.to_chrome ~pid:(Unix.getpid ()) ~threads:[ (1, "sweep") ] [ spans ])
      in
      let k = float_of_int (List.length ts) in
      (* Counts and allocation ratios repeat from pass to pass; the last
         traced pass gives them. *)
      let last = List.nth ts (List.length ts - 1) in
      let a = last.acc in
      let per name = Spans.total rows name /. k in
      let translated = spec.pages <> None in
      let fused = per "replay.fused" and run = per "replay.run" and vm = per "replay.vm" in
      let retimes = fused +. per "replay.shape" +. run +. vm in
      let replay = if translated then vm else fused in
      let wall = Common.sum (fun p -> p.wall) ts /. k in
      let parts = per "between_jobs" +. per "build" +. per "iteration" +. per "finish" in
      let traced_work =
        (wall -. retimes -. (Common.sum (fun p -> p.probe_s) ts /. k)) /. pass_factor last
      in
      let f = float_of_int in
      let values =
        [
          ("workloads.build_s", per "build");
          ("workloads.iterations_s", per "iteration");
          ("workloads.finish_s", per "finish");
          ("experiments.sweep_overhead_s", wall -. retimes -. parts);
          ("gpu.functional_s", per "iteration" -. replay);
          ( "gpu.functional_words_per_instr",
            Common.ratio (a.iter_words -. a.path_words) (f a.instrs) );
          ("gpu.replay_s", replay);
          ("gpu.replay_fused_s", fused);
          ("vm.translate_s", if translated then vm -. run else 0.);
          ( "gpu.replay_words_per_instr",
            Common.ratio (a.fused_words -. a.shape_words) (f a.instrs) );
          ("gpu.replay_words_per_launch", Common.ratio a.shape_words (f a.launches));
          ("gpu.hierarchy_words", Common.ratio a.hierarchy_words (f a.cells));
          ("gpu.dedup_ratio", Common.ratio (f a.sealed) (f a.unique));
          ("gpu.unique_instr_frac", Common.ratio (f a.unique_instrs) (f a.sealed_instrs));
          ("trace_overhead_pct", 100. *. ((traced_work /. work ref_pass) -. 1.));
          ("host.probe_factor", pass_factor last);
        ]
        @ Common.counts last.runs
      in
      ( Common.per_layer values,
        [
          ("traced_passes", Json.Int (List.length ts));
          ("sweep_wall_s", Json.Float wall);
          ("unexplained_frac", Json.Float ((wall -. retimes -. parts) /. (wall -. retimes)));
          ("trace_file", Json.String (Common.trace_path spec.name));
          ("self_times", Common.self_time_note rows);
        ] )
    | _ -> ([], [])
  in
  {
    Outcome.workload = spec.name;
    seed;
    trace;
    attempted;
    failed = !failed;
    problems = List.rev !problems;
    metrics;
    notes = notes @ [ ("digests_unchecked", Json.Int unchecked) ];
    digests = digests_seen;
  }
