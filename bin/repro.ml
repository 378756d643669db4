(* The command-line front end.

     repro list                         all workloads
     repro run -w TRAF -t coal          one workload under one technique
     repro profile -w TRAF -t tp        per-kernel counter timeline
     repro trace TRAF tp                Chrome-trace export (Perfetto)
     repro compare -w GOL               one workload under all techniques
     repro figure 6 9                   regenerate figures (1b, 6..12b, dram, tlb)
     repro table 2                      regenerate a table (1 or 2)
     repro sweep                        the full job matrix, with timings
     repro check --all                  sanitizer + cross-technique dispatch oracle
     repro init                         the Sec. 8.2 allocation comparison
     repro ablation                     TypePointer mode and encoding ablations
     repro serve                        the sweep daemon (PROTOCOL.md)
     repro submit -w TRAF               send a job batch to the daemon
     repro ctl stats                    poke the daemon (ping, stats, query, ...)

   Measurement commands take -j N (parallel sweep over N domains; the
   output is byte-identical at any N) and cache results on disk so that
   consecutive figure/table regenerations measure once; --no-cache
   forces re-measurement. figure/table/sweep/compare/profile take
   --json PATH (and profile/figure also --csv PATH) to export the exact
   data behind the text rendering. *)

module W = Repro_workloads
module T = Repro_core.Technique
module A = Repro_core.Alloc_family
module E = Repro_experiments
module X = Repro_exec
module O = Repro_obs
module Series = Repro_report.Series

open Cmdliner

(* Workload/technique names are resolved in the command body, not by an
   [Arg.conv]: an unknown name is a user mistake, not a malformed command
   line, so it gets a short message listing the valid names and exit
   code 2 instead of cmdliner's usage dump. *)

let cli_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "repro: %s\n%!" msg;
      exit 2)
    fmt

let technique_names = X.Request.technique_names

let resolve_technique s =
  match T.of_string s with
  | Ok t -> t
  | Error _ ->
    cli_error "unknown technique %S; valid techniques: %s" s
      (String.concat ", " technique_names)

let resolve_workload s =
  match W.Registry.find s with
  | Some w -> w
  | None ->
    cli_error "unknown workload %S; valid workloads: %s" s
      (String.concat ", " (List.map W.Registry.qualified_name W.Registry.all))

let resolve_alloc s =
  match A.of_string s with
  | Ok fam -> fam
  | Error _ ->
    cli_error "unknown allocator family %S; valid families: %s" s
      (String.concat ", " A.all_names)

let alloc_arg =
  Arg.(value & opt (some string) None & info [ "alloc" ] ~docv:"FAMILY"
         ~doc:"Allocator family: cuda | shared-oa | dyna (default: the \
               technique's paper allocator -- the SharedOA heap for \
               shard/coal/tp, the device heap for cuda/con).")

(* [resolve_pages] validates eagerly so a typo exits 2 with the policy
   list; "none"/"off" resolve to [None] (translation off), matching the
   spec layer's canonicalization. *)
let resolve_pages s =
  match Repro_vm.Policy.parse s with
  | Ok p -> p
  | Error _ ->
    cli_error "unknown page policy %S; valid policies: %s" s
      (String.concat ", " Repro_vm.Policy.cli_names)

(* The canonical wire spelling for a spec ("none" when translation is
   off; [Spec.make] maps it back to the absent field). *)
let canonical_pages s =
  match resolve_pages s with
  | None -> "none"
  | Some p -> Repro_vm.Policy.name p

let pages_arg =
  Arg.(value & opt (some string) None & info [ "pages" ] ~docv:"POLICY"
         ~doc:"Address-translation page-size policy: none | flat-4k | \
               flat-2m | coalesce (default: none -- translation off, the \
               TLB model fully out of the measured path).")

(* A number checked when the command line is evaluated, so a bad value
   exits 2 before any job runs, with the rule and message every spec gets
   from [Request.Spec]. *)
let checked error arg =
  Term.(const (fun v -> Option.iter (cli_error "%s") (error v); v) $ arg)

let scale_arg =
  checked X.Request.Spec.scale_error
    Arg.(value & opt float E.Sweep.default_scale & info [ "s"; "scale" ] ~docv:"SCALE"
           ~doc:"Workload scale factor (1.0 = the full reduced-size \
                 configuration; default 0.25 -- the one repo-wide constant \
                 every bare surface shares, CLI and wire protocol alike). \
                 $(b,--scale 1.0) regenerates the paper's figures; see \
                 EXPERIMENTS.md.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic input seed.")

let iterations_arg =
  checked (fun i -> Option.bind i (X.Request.Spec.count_error "iterations"))
    Arg.(value & opt (some int) None & info [ "i"; "iterations" ] ~docv:"N"
           ~doc:"Override the workload's compute-iteration count.")

let jobs_arg =
  Arg.(value & opt int (X.Executor.default_jobs ()) & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Measure on $(docv) worker domains (default: the number of \
               cores). Results and output are byte-identical at any N; \
               1 reproduces the serial sweep.")

let no_cache_arg =
  Arg.(value & flag & info [ "no-cache" ]
         ~doc:"Do not read or write the on-disk result cache; re-measure \
               every job.")

let cache_dir_arg =
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
         ~doc:"Result-cache directory (default: \\$REPRO_CACHE_DIR or \
               _repro_cache).")

let json_arg =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH"
         ~doc:"Also write the data behind the text output as JSON to $(docv).")

let csv_arg =
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"PATH"
         ~doc:"Also write the data behind the text output as CSV to $(docv).")

(* All job construction funnels through [Request.Spec] — the same
   plain-data description the serve protocol carries — so the CLI, the
   daemon and the bench resolve names and defaults identically. *)

let canonical_alloc s = A.name (resolve_alloc s)

(* --alloc/--pages/--scale/--seed/--iterations, shared by every command
   that builds jobs one spec at a time. The flags are resolved once, when
   the command line is evaluated, so a typo exits 2 with the valid-name
   list and every spec carries the canonical names; the workload and
   technique come later, from each command's own flags. *)
let spec_term =
  let make alloc pages scale seed iterations =
    let alloc = Option.map canonical_alloc alloc in
    let pages = Option.map canonical_pages pages in
    fun ~workload ~technique ->
      X.Request.Spec.make ?alloc ?pages ?iterations ~scale ~seed ~workload
        ~technique ()
  in
  Term.(const make $ alloc_arg $ pages_arg $ scale_arg $ seed_arg
        $ iterations_arg)

let resolve_spec spec =
  match X.Request.Spec.resolve spec with
  | Ok job -> job
  | Error msg -> cli_error "%s" msg

let params_of spec =
  match X.Request.Spec.to_params spec with
  | Ok p -> p
  | Error msg -> cli_error "%s" msg

(* --timeline / --window, shared by run and profile. *)

let timeline_arg =
  Arg.(value & flag & info [ "timeline" ]
         ~doc:"Sample counters into fixed cycle windows and print the \
               per-window time series (sparklines; exact — window sums \
               reproduce the run totals bit-for-bit).")

let window_arg =
  Arg.(value & opt (some int) None & info [ "window" ] ~docv:"N"
         ~doc:"Sampling window in cycles (implies $(b,--timeline); \
               default 1024).")

let resolve_window window =
  match window with
  | Some n when n <= 0 -> cli_error "window must be positive, got %d" n
  | Some n -> n
  | None -> Repro_gpu.Telemetry.default_window

(* [None] when neither flag was given, so the measurement stays on the
   zero-allocation replay path. *)
let sampling_config timeline window =
  if timeline || window <> None then
    Some
      { Repro_gpu.Telemetry.window = Some (resolve_window window);
        trace = false;
        trace_capacity = Repro_gpu.Telemetry.default_capacity }
  else None

let timeline_of (r : W.Harness.run) =
  match r.W.Harness.window with
  | None -> None
  | Some window ->
    Some
      (O.Timeline.make ~workload:r.W.Harness.workload
         ~technique:(T.name r.W.Harness.technique)
         ~window ~kernel_windows:r.W.Harness.kernel_windows)

let write_json path json =
  O.Sink.write_file ~path (O.Json.to_string ~pretty:true json);
  Printf.eprintf "wrote %s\n%!" path

let write_csv path contents =
  O.Sink.write_file ~path contents;
  Printf.eprintf "wrote %s\n%!" path

let series_csv = function
  | [ s ] -> O.Sink.series_to_csv s
  | many ->
    String.concat "\n"
      (List.map
         (fun (s : Series.t) ->
           "# " ^ s.Series.name ^ "\n" ^ O.Sink.series_to_csv s)
         many)

let metric r = O.Metric.to_float r

let print_run (r : W.Harness.run) =
  Printf.printf
    "%-22s %-8s cycles=%12.0f  ld-trans=%10.0f  L1=%5.1f%%  instr=%10.0f  pki=%5.1f\n"
    r.W.Harness.workload
    (A.column_name r.W.Harness.technique r.W.Harness.alloc)
    r.W.Harness.cycles
    (metric O.Metric.load_transactions r.W.Harness.stats)
    (100. *. metric O.Metric.l1_hit_rate r.W.Harness.stats)
    (metric O.Metric.instructions_total r.W.Harness.stats)
    r.W.Harness.vfunc_pki

(* --- list ---------------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun w ->
        Printf.printf "%-18s %-12s paper: %d objects, %d types -- %s\n"
          (W.Registry.qualified_name w) w.W.Workload.suite w.W.Workload.paper_objects
          w.W.Workload.paper_types w.W.Workload.description)
      W.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the eleven workloads of Table 2.")
    Term.(const run $ const ())

(* --- run ----------------------------------------------------------------- *)

let run_cmd =
  let workload =
    Arg.(required & opt (some string) None & info [ "w"; "workload" ] ~docv:"NAME"
           ~doc:"Workload name (see $(b,repro list)).")
  in
  let technique =
    Arg.(value & opt string "shard" & info [ "t"; "technique" ] ~docv:"TECH"
           ~doc:"cuda | con | shard | coal | tp | tp-hw | tp/cuda.")
  in
  let run w t spec timeline window =
    let job = resolve_spec (spec ~workload:w ~technique:t) in
    let p =
      { job.X.Job.params with
        W.Workload.telemetry = sampling_config timeline window }
    in
    let r = W.Harness.run job.X.Job.workload p in
    print_run r;
    (* The full registry breakdown (every metric, including per-label
       stall attribution and store transactions). *)
    Format.printf "%a@." O.Metric.pp_stats r.W.Harness.stats;
    Format.printf "%a@." Repro_core.Allocator.pp_stats r.W.Harness.alloc_stats;
    Option.iter (fun tl -> print_string (O.Timeline.render tl)) (timeline_of r)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one workload under one technique and print its profile.")
    Term.(const run $ workload $ technique $ spec_term $ timeline_arg
          $ window_arg)

(* --- profile --------------------------------------------------------------- *)

let profile_cmd =
  let workload =
    Arg.(required & opt (some string) None & info [ "w"; "workload" ] ~docv:"NAME"
           ~doc:"Workload name (see $(b,repro list)).")
  in
  let technique =
    Arg.(value & opt string "shard" & info [ "t"; "technique" ] ~docv:"TECH"
           ~doc:"cuda | con | shard | coal | tp | tp-hw | tp/cuda.")
  in
  let run w t spec timeline window json csv =
    let job = resolve_spec (spec ~workload:w ~technique:t) in
    let p =
      { job.X.Job.params with
        W.Workload.telemetry = sampling_config timeline window }
    in
    let t0 = Unix.gettimeofday () in
    let r = W.Harness.run job.X.Job.workload p in
    let wall_s = Unix.gettimeofday () -. t0 in
    let profile =
      O.Profile.make ~workload:r.W.Harness.workload
        ~technique:(A.column_name r.W.Harness.technique r.W.Harness.alloc)
        ~kernel_stats:r.W.Harness.kernel_stats ~total:r.W.Harness.stats
    in
    (match O.Profile.consistent profile with
     | Ok () -> ()
     | Error msg ->
       Printf.eprintf "warning: per-kernel deltas disagree with totals: %s\n%!" msg);
    print_string (O.Profile.render profile);
    let tl = timeline_of r in
    Option.iter
      (fun tl ->
        (match O.Timeline.consistent tl ~profile with
         | Ok () -> ()
         | Error msg ->
           Printf.eprintf
             "warning: window sums disagree with per-kernel deltas: %s\n%!" msg);
        print_string (O.Timeline.render tl))
      tl;
    let instrs = Repro_gpu.Stats.total_instructions r.W.Harness.stats in
    if wall_s > 0. then
      Printf.printf
        "simulator throughput: %.2f Mcycles/s, %.2f Minstr/s (%.3fs wall)\n"
        (r.W.Harness.cycles /. wall_s /. 1e6)
        (float_of_int instrs /. wall_s /. 1e6)
        wall_s;
    let profile_json =
      match O.Profile.to_json profile with
      | O.Json.Obj fields ->
        let throughput =
          if wall_s > 0. then
            [
              ( "throughput",
                O.Json.Obj
                  [
                    ("wall_s", O.Json.Float wall_s);
                    ( "mcycles_per_s",
                      O.Json.Float (r.W.Harness.cycles /. wall_s /. 1e6) );
                    ( "instr_per_s",
                      O.Json.Float (float_of_int instrs /. wall_s) );
                  ] );
            ]
          else []
        in
        let timeline_field =
          match tl with
          | Some tl -> [ ("timeline", O.Timeline.to_json tl) ]
          | None -> []
        in
        O.Json.Obj (fields @ throughput @ timeline_field)
      | j -> j
    in
    Option.iter (fun path -> write_json path profile_json) json;
    Option.iter
      (fun path ->
        let contents =
          match tl with
          | None -> O.Profile.to_csv profile
          | Some tl ->
            O.Profile.to_csv profile ^ "\n" ^ series_csv (O.Timeline.series tl)
        in
        write_csv path contents)
      csv
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run one workload under one technique and print its per-kernel \
             counter timeline (the simulator's nvprof).")
    Term.(const run $ workload $ technique $ spec_term $ timeline_arg
          $ window_arg $ json_arg $ csv_arg)

(* --- trace ----------------------------------------------------------------- *)

let trace_cmd =
  let workload =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD"
           ~doc:"Workload name (see $(b,repro list)).")
  in
  let technique =
    Arg.(value & pos 1 string "shard" & info [] ~docv:"TECH"
           ~doc:"cuda | con | shard | coal | tp | tp-hw | tp/cuda.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output path (default: trace_<workload>_<technique>.json).")
  in
  let capacity =
    Arg.(value & opt int Repro_gpu.Telemetry.default_capacity
         & info [ "capacity" ] ~docv:"N"
             ~doc:"Event-ring size; when the run emits more events the \
                   oldest are dropped (reported as trace.dropped).")
  in
  let sanitize name =
    String.map (fun c -> if c = '/' || c = ' ' then '_' else c) name
  in
  let run w t spec window capacity out =
    let job = resolve_spec (spec ~workload:w ~technique:t) in
    let column = X.Job.column_name job in
    if capacity <= 0 then cli_error "capacity must be positive, got %d" capacity;
    let p =
      { job.X.Job.params with
        W.Workload.telemetry =
          Some
            { Repro_gpu.Telemetry.window = Some (resolve_window window);
              trace = true;
              trace_capacity = capacity } }
    in
    let r = W.Harness.run job.X.Job.workload p in
    let dump =
      match r.W.Harness.trace with
      | Some d -> d
      | None -> cli_error "tracing produced no dump (internal error)"
    in
    let tl = timeline_of r in
    let json =
      O.Tracer.to_json ?timeline:tl ~workload:r.W.Harness.workload
        ~technique:column dump
    in
    let text = O.Json.to_string ~pretty:true json in
    (* Round-trip through our own parser plus the structural validator
       before writing: a malformed trace should fail here, not in
       Perfetto. *)
    (match O.Json.of_string text with
     | Error msg ->
       Printf.eprintf "repro: trace JSON does not parse back: %s\n%!" msg;
       exit 1
     | Ok parsed ->
       (match O.Tracer.validate parsed with
        | Ok () -> ()
        | Error msg ->
          Printf.eprintf "repro: invalid Chrome trace: %s\n%!" msg;
          exit 1));
    let path =
      match out with
      | Some p -> p
      | None ->
        Printf.sprintf "trace_%s_%s.json"
          (sanitize r.W.Harness.workload)
          (sanitize column)
    in
    O.Sink.write_file ~path text;
    Printf.printf
      "%s [%s]: %d events (%d dropped), %d kernel span(s), window %d cycles\n"
      r.W.Harness.workload column
      (Array.length dump.Repro_gpu.Telemetry.events)
      dump.Repro_gpu.Telemetry.dropped
      (List.length dump.Repro_gpu.Telemetry.kernels)
      dump.Repro_gpu.Telemetry.window;
    Printf.printf "wrote %s (load in https://ui.perfetto.dev or chrome://tracing)\n"
      path
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run one workload under one technique with the event tracer on \
             and export a Chrome trace-event JSON (Perfetto-loadable): one \
             track per SM (stall intervals, L1), plus L2, DRAM, kernel \
             spans and windowed counter tracks.")
    Term.(const run $ workload $ technique $ spec_term $ window_arg $ capacity
          $ out)

(* --- compare --------------------------------------------------------------- *)

let compare_cmd =
  let workload =
    Arg.(required & opt (some string) None & info [ "w"; "workload" ] ~docv:"NAME")
  in
  let run w scale seed iterations json =
    let w = resolve_workload w in
    let sweep =
      E.Sweep.exec ~scale ~seed ?iterations ~workloads:[ w ]
        ~columns:E.Sweep.paper_columns ()
    in
    let runs = E.Sweep.runs sweep in
    List.iter print_run runs;
    let base =
      E.Sweep.get sweep ~workload:(W.Registry.qualified_name w)
        ~technique:T.Shared_oa
    in
    Printf.printf "runtime normalized to SharedOA (lower is faster):";
    List.iter
      (fun (r : W.Harness.run) ->
        Printf.printf "  %s=%.2f" (T.name r.W.Harness.technique)
          (W.Harness.normalized_cycles ~baseline:base r))
      runs;
    print_newline ();
    Option.iter
      (fun path ->
        write_json path
          (O.Json.Obj
             [
               ("workload", O.Json.String (W.Registry.qualified_name w));
               ("scale", O.Json.Float scale);
               ( "runs",
                 O.Json.List
                   (List.map
                      (fun (r : W.Harness.run) ->
                        O.Json.Obj
                          [
                            ( "technique",
                              O.Json.String (T.name r.W.Harness.technique) );
                            ("cycles", O.Json.Float r.W.Harness.cycles);
                            ( "normalized_to_shard",
                              O.Json.Float
                                (W.Harness.normalized_cycles ~baseline:base r) );
                            ("metrics", O.Metric.to_json r.W.Harness.stats);
                          ])
                      runs) );
             ]))
      json
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Run one workload under all five techniques (validating results agree).")
    Term.(const run $ workload $ scale_arg $ seed_arg $ iterations_arg $ json_arg)

(* --- figure / table --------------------------------------------------------- *)

(* The figure/table sweep. --alloc picks the family of the extra
   CUDA-dispatch comparison column appended to the five paper techniques
   (default: dyna); naming the device heap's own family drops the extra
   column and reproduces the paper's original five. *)
let sweep_columns alloc =
  match alloc with
  | None -> E.Sweep.default_columns
  | Some name ->
    let fam = resolve_alloc name in
    if A.is_default T.Cuda fam then E.Sweep.paper_columns
    else E.Sweep.paper_columns @ [ E.Sweep.column ~alloc:fam T.Cuda ]

let progress label = Printf.eprintf "  %s...\n%!" label

let sweep_of ?alloc ?pages ?memo scale j cache cache_dir =
  let pages = Option.bind pages resolve_pages in
  let sweep =
    E.Sweep.exec ~columns:(sweep_columns alloc) ?pages ~scale ~j ~cache
      ?cache_dir ~progress ?memo ()
  in
  let outcomes = E.Sweep.outcomes sweep in
  let cached = List.length (List.filter (fun o -> o.X.Executor.cached) outcomes) in
  Printf.eprintf "sweep: %d jobs (%d measured, %d cached), job time %.2fs\n%!"
    (List.length outcomes)
    (List.length outcomes - cached)
    cached
    (X.Executor.total_wall_s outcomes);
  sweep

let figure_cmd =
  let ids =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"FIG"
           ~doc:("One or more of: " ^ String.concat ", " E.Figures.ids
                 ^ ". Several figures share one sweep and print in that \
                    order."))
  in
  let figure_alloc =
    Arg.(value & opt (some string) None & info [ "alloc" ] ~docv:"FAMILY"
           ~doc:"Family of the extra CUDA-dispatch comparison column in the \
                 sweep figures (default: dyna). $(b,--alloc cuda) drops the \
                 extra column and renders the paper's original five.")
  in
  let run ids alloc pages scale j no_cache cache_dir json csv =
    List.iter
      (fun id ->
        match E.Figures.find id with
        | None ->
          cli_error "unknown figure %S; valid figures: %s" id
            (String.concat ", " E.Figures.ids)
        | Some f ->
          if alloc <> None && not f.E.Figures.alloc then
            cli_error "figure %s has a fixed column set; --alloc does not apply"
              id;
          if pages <> None && not f.E.Figures.pages then
            cli_error "figure %s sets its own page policy; --pages does not \
                       apply" id)
      ids;
    let cache = not no_cache in
    let memo = E.Sweep.memo () in
    let source =
      { E.Figures.scale; j; cache; cache_dir; progress; memo;
        columns = sweep_columns alloc;
        sweep = lazy (sweep_of ?alloc ?pages ~memo scale j cache cache_dir) }
    in
    let results =
      List.filter_map
        (fun f ->
          if List.mem f.E.Figures.id ids then Some (f, f.E.Figures.series source)
          else None)
        E.Figures.all
    in
    print_string
      (String.concat "\n"
         (List.map (fun (f, series) -> E.Figures.text f source series) results));
    Option.iter
      (fun path -> write_json path (E.Figures.trajectory ~scale results))
      json;
    Option.iter
      (fun path -> write_csv path (series_csv (List.concat_map snd results)))
      csv
  in
  Cmd.v
    (Cmd.info "figure"
       ~doc:"Regenerate the paper's figures, or the repo's companion \
             series: $(b,dram), DRAM sectors per run, and $(b,tlb), \
             page-walk overhead across page-size policies.")
    Term.(const run $ ids $ figure_alloc $ pages_arg $ scale_arg $ jobs_arg
          $ no_cache_arg $ cache_dir_arg $ json_arg $ csv_arg)

let table1_json sweep =
  O.Json.Obj
    [
      ("table", O.Json.String "1");
      ( "measured",
        O.Json.List
          (List.map
             (fun (m : E.Table1.measured) ->
               O.Json.Obj
                 [
                   ("technique", O.Json.String m.E.Table1.technique);
                   ( "get_vtable_per_kcall",
                     O.Json.Float m.E.Table1.get_vtable_per_kcall );
                   ( "get_vfunc_per_kcall",
                     O.Json.Float m.E.Table1.get_vfunc_per_kcall );
                 ])
             (E.Table1.measure sweep)) );
    ]

let table2_json sweep =
  O.Json.Obj
    [
      ("table", O.Json.String "2");
      ( "rows",
        O.Json.List
          (List.map
             (fun (r : E.Table2.row) ->
               O.Json.Obj
                 [
                   ("suite", O.Json.String r.E.Table2.suite);
                   ("workload", O.Json.String r.E.Table2.workload);
                   ("objects", O.Json.Int r.E.Table2.objects);
                   ("paper_objects", O.Json.Int r.E.Table2.paper_objects);
                   ("types", O.Json.Int r.E.Table2.types);
                   ("vfuncs", O.Json.Int r.E.Table2.vfuncs);
                   ("vfunc_pki", O.Json.Float r.E.Table2.vfunc_pki);
                 ])
             (E.Table2.rows sweep)) );
    ]

let table_cmd =
  let which = Arg.(required & pos 0 (some string) None & info [] ~docv:"TABLE") in
  let run which scale j no_cache cache_dir json =
    let text, table_json =
      match which with
      | "1" ->
        let s = sweep_of scale j (not no_cache) cache_dir in
        (E.Table1.render s, table1_json s)
      | "2" ->
        let s = sweep_of scale j (not no_cache) cache_dir in
        (E.Table2.render s, table2_json s)
      | other -> cli_error "unknown table %S; valid tables: 1, 2" other
    in
    print_string text;
    Option.iter (fun path -> write_json path table_json) json
  in
  Cmd.v (Cmd.info "table" ~doc:"Regenerate Table 1 or Table 2.")
    Term.(const run $ which $ scale_arg $ jobs_arg $ no_cache_arg $ cache_dir_arg
          $ json_arg)

let ablation_cmd =
  let run scale j no_cache cache_dir =
    let sweep =
      E.Sweep.exec ~columns:E.Ablation.tp_columns ~scale ~j
        ~cache:(not no_cache) ?cache_dir ()
    in
    print_string
      (E.Ablation.render
         ~title:"TypePointer: silicon prototype vs hardware MMU"
         (E.Ablation.tp_prototype_vs_hw sweep));
    print_string
      (E.Ablation.render ~title:"TypePointer: tag encodings (Sec. 6.2)"
         [ E.Ablation.tp_encoding () ])
  in
  Cmd.v (Cmd.info "ablation" ~doc:"Design-choice ablations (TypePointer modes and encodings).")
    Term.(const run $ scale_arg $ jobs_arg $ no_cache_arg $ cache_dir_arg)

let init_cmd =
  let run scale j no_cache cache_dir =
    let sweep =
      E.Sweep.exec ~columns:E.Init_bench.columns ~scale ~j
        ~cache:(not no_cache) ?cache_dir ()
    in
    print_string (E.Init_bench.render (E.Init_bench.rows sweep))
  in
  Cmd.v
    (Cmd.info "init" ~doc:"The Sec. 8.2 initialization-cost comparison (SharedOA vs device new).")
    Term.(const run $ scale_arg $ jobs_arg $ no_cache_arg $ cache_dir_arg)

(* --- check ----------------------------------------------------------------- *)

let violation_json (v : Repro_san.Violation.t) =
  O.Json.Obj
    [
      ("kind", O.Json.String (Repro_san.Violation.kind_slug v.Repro_san.Violation.kind));
      ("warp", O.Json.Int v.Repro_san.Violation.warp);
      ("lane", O.Json.Int v.Repro_san.Violation.lane);
      ("addr", O.Json.String (Printf.sprintf "0x%x" v.Repro_san.Violation.addr));
      ("access", O.Json.String v.Repro_san.Violation.access);
      ("detail", O.Json.String v.Repro_san.Violation.detail);
    ]

let technique_report_json (tr : X.Check.technique_report) =
  O.Json.Obj
    [
      ("technique", O.Json.String (T.name tr.X.Check.technique));
      ("clean", O.Json.Bool (X.Check.technique_clean tr));
      ( "error",
        match tr.X.Check.error with
        | Some e -> O.Json.String e
        | None -> O.Json.Null );
      ("dispatches", O.Json.Int tr.X.Check.dispatches);
      ( "violations",
        O.Json.Obj
          (List.map
             (fun k ->
               ( Repro_san.Violation.kind_slug k,
                 O.Json.Int tr.X.Check.counts.(Repro_san.Violation.kind_index k) ))
             Repro_san.Violation.kinds) );
      ( "total_violations",
        O.Json.Int (Array.fold_left ( + ) 0 tr.X.Check.counts) );
      ("samples", O.Json.List (List.map violation_json tr.X.Check.samples));
      ( "divergence",
        match tr.X.Check.divergence with
        | None -> O.Json.Null
        | Some d ->
          O.Json.Obj
            [
              ( "index",
                match d.X.Check.index with
                | Some i -> O.Json.Int i
                | None -> O.Json.Null );
              ("summary", O.Json.String d.X.Check.summary);
              ( "context",
                match d.X.Check.context with
                | Some c -> O.Json.String c
                | None -> O.Json.Null );
            ] );
    ]

let check_json ~scale ~mutation reports =
  O.Json.Obj
    [
      ("scale", O.Json.Float scale);
      ( "mutation",
        match mutation with
        | Some m -> O.Json.String (Repro_san.Mutation.to_string m)
        | None -> O.Json.Null );
      ("clean", O.Json.Bool (X.Check.all_clean reports));
      ( "workloads",
        O.Json.List
          (List.map
             (fun (r : X.Check.report) ->
               O.Json.Obj
                 [
                   ("workload", O.Json.String r.X.Check.workload);
                   ("clean", O.Json.Bool (X.Check.clean r));
                   ( "techniques",
                     O.Json.List
                       (List.map technique_report_json r.X.Check.techniques) );
                 ])
             reports) );
    ]

let check_cmd =
  let workload =
    Arg.(value & opt (some string) None & info [ "w"; "workload" ] ~docv:"NAME"
           ~doc:"Check one workload (see $(b,repro list)).")
  in
  let technique =
    Arg.(value & opt (some string) None & info [ "t"; "technique" ] ~docv:"TECH"
           ~doc:"Check only $(docv) against the CUDA reference (default: \
                 all five techniques).")
  in
  let all =
    Arg.(value & flag & info [ "all" ]
           ~doc:"Check every workload (the full matrix against the CUDA \
                 reference).")
  in
  let mutate =
    Arg.(value & opt (some string) None & info [ "mutate" ] ~docv:"BUG"
           ~doc:"Seed one deliberate bookkeeping bug (self-test mode): \
                 $(b,tag) records a wrong TypePointer tag, $(b,region) \
                 shrinks a shadow extent, $(b,uaf) marks an allocation \
                 dead, $(b,range) skews COAL's range-table leaves. The \
                 matching detector must fire, so the command exits 1.")
  in
  let run w t spec all mutate j json =
    let workloads =
      match (w, all) with
      | Some _, true -> cli_error "pass either -w NAME or --all, not both"
      | Some name, false -> [ resolve_workload name ]
      | None, true -> W.Registry.all
      | None, false ->
        cli_error "nothing to check: pass -w NAME or --all"
    in
    let techniques =
      match t with
      | None -> T.all_paper
      | Some name -> [ resolve_technique name ]
    in
    let mutation =
      Option.map
        (fun name ->
          match Repro_san.Mutation.of_string name with
          | Ok m -> m
          | Error _ ->
            cli_error "unknown mutation %S; valid mutations: %s" name
              (String.concat ", " Repro_san.Mutation.names))
        mutate
    in
    let spec =
      spec ~workload:(W.Registry.qualified_name (List.hd workloads))
        ~technique:"cuda"
    in
    let scale = spec.X.Request.Spec.scale in
    let params = params_of spec in
    let reports = X.Check.run ~jobs:j ?mutation ~techniques ~params workloads in
    List.iter (Format.printf "%a@." X.Check.pp_report) reports;
    let clean = X.Check.all_clean reports in
    Printf.printf "check: %s (%d workload(s) x %d technique(s))\n"
      (if clean then "clean" else "VIOLATIONS")
      (List.length reports)
      (List.length
         (match reports with r :: _ -> r.X.Check.techniques | [] -> []));
    Option.iter
      (fun path -> write_json path (check_json ~scale ~mutation reports))
      json;
    if not clean then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Run the shadow-heap sanitizer and the cross-technique \
             dispatch oracle: every access checked against the shadow \
             map, every dispatch compared with the CUDA reference.")
    Term.(const run $ workload $ technique $ spec_term $ all $ mutate
          $ jobs_arg $ json_arg)

(* --- sweep ----------------------------------------------------------------- *)

(* Outcomes are exported in the serve protocol's encoding ({!X.Response}):
   the "run" object round-trips the full stats bit-exactly, so a sweep
   written here and a batch fetched from the daemon compare byte for
   byte. *)
let outcome_json (o : X.Executor.outcome) =
  X.Response.outcome_to_json (X.Response.outcome_of_executor o)

let quiet_arg =
  Arg.(value & flag & info [ "q"; "quiet" ]
         ~doc:"Print only the final summary line; job tables and progress \
               go away (pair with $(b,--json) for machine-readable output).")

(* The per-job table shared by sweep and submit. *)
let print_outcome_rows rows =
  Printf.printf "%-22s %-8s %-8s %9s %14s %8s %9s\n" "workload" "tech"
    "status" "wall(s)" "cycles" "Mcyc/s" "Minstr/s";
  List.iter
    (fun (name, tech, status, wall_s, result) ->
      match result with
      | Ok (r : W.Harness.run) ->
        let mcyc, minstr =
          if wall_s > 0. then
            ( Printf.sprintf "%8.2f" (r.W.Harness.cycles /. wall_s /. 1e6),
              Printf.sprintf "%9.2f"
                (float_of_int
                   (Repro_gpu.Stats.total_instructions r.W.Harness.stats)
                 /. wall_s /. 1e6) )
          else (Printf.sprintf "%8s" "-", Printf.sprintf "%9s" "-")
        in
        Printf.printf "%-22s %-8s %-8s %9.3f %14.0f %s %s\n" name tech status
          wall_s r.W.Harness.cycles mcyc minstr
      | Error msg ->
        Printf.printf "%-22s %-8s %-8s %9.3f %14s  %s\n" name tech "ERROR"
          wall_s "-" msg)
    rows

let sweep_cmd =
  let clear =
    Arg.(value & flag & info [ "clear-cache" ]
           ~doc:"Drop every cached result before sweeping.")
  in
  let run alloc pages scale j no_cache cache_dir clear quiet json =
    let cache = not no_cache in
    let dir = Option.value cache_dir ~default:(X.Cache.default_dir ()) in
    if clear then
      Printf.eprintf "cleared %d cached result(s) from %s\n%!"
        (X.Cache.clear ~dir) dir;
    (* Default: the five paper techniques on their own allocators plus
       the DYNA column, matching [Sweep.default_columns] so figure/table
       regeneration hits the same cache entries. --alloc FAMILY instead
       runs every technique over that one family. *)
    let jobs =
      List.map resolve_spec
        (X.Request.Spec.sweep_matrix
           ~base:
             (X.Request.Spec.make
                ?pages:(Option.map canonical_pages pages)
                ?alloc:(Option.map canonical_alloc alloc)
                ~scale ~workload:"" ~technique:"" ()))
    in
    let t0 = Unix.gettimeofday () in
    let outcomes = X.Executor.run ~jobs:j ~cache ~cache_dir:dir jobs in
    let elapsed = Unix.gettimeofday () -. t0 in
    if not quiet then
      print_outcome_rows
        (List.map
           (fun (o : X.Executor.outcome) ->
             ( X.Job.workload_name o.X.Executor.job,
               X.Job.column_name o.X.Executor.job,
               (if o.X.Executor.cached then "cached" else "ran"),
               o.X.Executor.wall_s,
               o.X.Executor.result ))
           outcomes);
    let cached =
      List.length (List.filter (fun o -> o.X.Executor.cached) outcomes)
    in
    let failed = List.length (X.Executor.errors outcomes) in
    Printf.printf
      "%d jobs on %d worker(s): %d measured, %d cached, %d failed; \
       job time %.2fs, wall %.2fs\n"
      (List.length outcomes) j
      (List.length outcomes - cached)
      cached failed
      (X.Executor.total_wall_s outcomes)
      elapsed;
    Option.iter
      (fun path ->
        write_json path
          (O.Json.Obj
             [
               ("scale", O.Json.Float scale);
               ("jobs", O.Json.Int (List.length outcomes));
               ("measured", O.Json.Int (List.length outcomes - cached));
               ("cached", O.Json.Int cached);
               ("failed", O.Json.Int failed);
               ("job_time_s", O.Json.Float (X.Executor.total_wall_s outcomes));
               ("wall_s", O.Json.Float elapsed);
               ("outcomes", O.Json.List (List.map outcome_json outcomes));
             ]))
      json;
    if failed > 0 then exit 1
  in
  let sweep_alloc =
    Arg.(value & opt (some string) None & info [ "alloc" ] ~docv:"FAMILY"
           ~doc:"Run every technique over one allocator family instead of \
                 the default matrix (paper allocators plus the DYNA \
                 column).")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Run the full job matrix (the five paper columns plus DYNA) \
             and print per-job status, wall time and cache hits.")
    Term.(const run $ sweep_alloc $ pages_arg $ scale_arg $ jobs_arg
          $ no_cache_arg $ cache_dir_arg $ clear $ quiet_arg $ json_arg)

(* --- serve / submit / ctl --------------------------------------------------- *)

let socket_arg =
  Arg.(value & opt string (X.Server.default_socket ())
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix socket of the daemon (default: \\$REPRO_SOCKET or \
                 _repro_serve.sock).")

let connect socket =
  match X.Server.Client.connect socket with
  | c -> c
  | exception Unix.Unix_error (e, _, _) ->
    cli_error "cannot connect to %s (%s) -- is `repro serve` running?" socket
      (Unix.error_message e)

let serve_cmd =
  let no_obs =
    Arg.(value & flag & info [ "no-obs" ]
           ~doc:"Disable all observability (metrics, tracing, logging): \
                 the zero-overhead request path with byte-identical \
                 responses.")
  in
  let log_file =
    Arg.(value & opt (some string) None & info [ "log-file" ] ~docv:"PATH"
           ~doc:"Append structured key=value log lines to $(docv).")
  in
  let log_level =
    Arg.(value & opt (some string) None & info [ "log-level" ] ~docv:"LEVEL"
           ~doc:"debug | info | warn | error (default info). Without \
                 $(b,--log-file), logs go to stderr.")
  in
  let slow_ms =
    Arg.(value & opt int 250 & info [ "slow-ms" ] ~docv:"MS"
           ~doc:"Log requests slower than $(docv) milliseconds at warn \
                 level and count them in requests.slow.")
  in
  let trace_capacity =
    Arg.(value & opt int 4096 & info [ "trace-capacity" ] ~docv:"N"
           ~doc:"Event-ring capacity for $(b,repro ctl trace-dump), in \
                 spans (drop-oldest; 0 disables tracing) — the same ring \
                 $(b,repro trace --capacity) sizes.")
  in
  let run socket j no_cache cache_dir no_obs log_file log_level slow_ms
      trace_capacity =
    if trace_capacity < 0 then
      cli_error "trace-capacity must be >= 0 (0 disables tracing), got %d"
        trace_capacity;
    let obs =
      if no_obs then begin
        if log_file <> None || log_level <> None then
          cli_error "--no-obs contradicts --log-file/--log-level";
        X.Server.obs_off
      end
      else begin
        let level =
          match O.Log.level_of_string (Option.value log_level ~default:"info")
          with
          | Ok l -> l
          | Error msg -> cli_error "%s" msg
        in
        let log =
          match (log_file, log_level) with
          | Some path, _ ->
            let oc =
              try
                open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644
                  path
              with Sys_error msg -> cli_error "cannot open log file: %s" msg
            in
            O.Log.to_channel ~level oc
          | None, Some _ -> O.Log.to_channel ~level stderr
          | None, None -> O.Log.null
        in
        X.Server.obs_default ~log
          ~slow_s:(float_of_int (max 0 slow_ms) /. 1000.)
          ~trace_capacity ()
      end
    in
    let cfg =
      { X.Server.socket_path = socket;
        workers = j;
        cache = not no_cache;
        cache_dir = Option.value cache_dir ~default:(X.Cache.default_dir ());
        obs }
    in
    Printf.eprintf "repro serve: listening on %s (%d worker(s), cache %s)\n%!"
      cfg.X.Server.socket_path cfg.X.Server.workers
      (if cfg.X.Server.cache then "in " ^ cfg.X.Server.cache_dir else "off");
    (match X.Server.run cfg with
     | () -> ()
     | exception Failure msg -> cli_error "%s" msg);
    Printf.eprintf "repro serve: shut down\n%!"
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the persistent sweep daemon: accepts concurrent clients \
             over a Unix socket (line-delimited JSON, see PROTOCOL.md), \
             schedules batches fairly across them, dedups identical \
             in-flight jobs, and shares one on-disk result cache. Serves \
             live metrics and request traces to $(b,repro ctl) unless \
             $(b,--no-obs). Stop it with $(b,repro ctl shutdown).")
    Term.(const run $ socket_arg $ jobs_arg $ no_cache_arg $ cache_dir_arg
          $ no_obs $ log_file $ log_level $ slow_ms $ trace_capacity)

let submit_cmd =
  let workloads =
    Arg.(value & opt_all string [] & info [ "w"; "workload" ] ~docv:"NAME"
           ~doc:"Workload to submit (repeatable; see $(b,repro list)).")
  in
  let techniques =
    Arg.(value & opt_all string [] & info [ "t"; "technique" ] ~docv:"TECH"
           ~doc:"Technique to submit (repeatable; default: all five paper \
                 techniques).")
  in
  let all =
    Arg.(value & flag & info [ "all" ]
           ~doc:"Submit the full 11x5 matrix ($(b,repro sweep)'s job list).")
  in
  let run socket ws ts spec all no_cache quiet json =
    let base = spec ~workload:"" ~technique:"" in
    let scale = base.X.Request.Spec.scale in
    let specs =
      if all then begin
        if ws <> [] || ts <> [] then
          cli_error "pass either --all or -w/-t, not both";
        X.Request.Spec.sweep_matrix ~base
      end
      else if ws = [] then
        cli_error "nothing to submit: pass -w NAME (repeatable) or --all"
      else
        let ts =
          if ts = [] then List.map X.Request.technique_to_string T.all_paper
          else ts
        in
        X.Request.Spec.matrix ~workloads:ws ~techniques:ts ~base
    in
    (* Resolve locally first: a typo fails here with the usual message
       instead of as a daemon-side batch rejection — and the spec goes
       out normalized (qualified workload, canonical technique name), so
       outcomes echo the same names `repro sweep` prints. *)
    let jobs = List.map resolve_spec specs in
    let specs = List.map X.Request.Spec.of_job jobs in
    let specs_arr = Array.of_list specs in
    let n = Array.length specs_arr in
    let client = connect socket in
    let id = Printf.sprintf "cli-%d" (Unix.getpid ()) in
    X.Server.Client.send client
      (X.Request.Submit { id; cache = not no_cache; specs });
    let outcomes = Array.make n None in
    let summary = ref None in
    let rec loop () =
      match X.Server.Client.recv client with
      | Stdlib.Error msg -> cli_error "server connection lost: %s" msg
      | Ok (X.Response.Error { message }) ->
        cli_error "server rejected the batch: %s" message
      | Ok (X.Response.Ack _) -> loop ()
      | Ok (X.Response.Running { index; _ }) ->
        if (not quiet) && index >= 0 && index < n then
          Printf.eprintf "  [%d/%d] %s...\n%!" (index + 1) n
            (X.Request.Spec.label specs_arr.(index));
        loop ()
      | Ok (X.Response.Job_done { index; outcome; _ }) ->
        if index >= 0 && index < n then outcomes.(index) <- Some outcome;
        loop ()
      | Ok (X.Response.Batch_done
              { jobs; measured; cached; deduped; failed; wall_s; _ }) ->
        summary := Some (jobs, measured, cached, deduped, failed, wall_s)
      | Ok _ -> loop ()
    in
    loop ();
    X.Server.Client.close client;
    let collected =
      Array.to_list outcomes |> List.filter_map (fun o -> o)
    in
    if List.length collected < n then
      cli_error "server sent %d of %d results" (List.length collected) n;
    if not quiet then
      (* [collected] is in batch-index order, so it lines up with [jobs]. *)
      print_outcome_rows
        (List.map2
           (fun job (o : X.Response.outcome) ->
             ( o.X.Response.spec.X.Request.Spec.workload,
               X.Job.column_name job,
               (if o.X.Response.cached then "cached"
                else if o.X.Response.deduped then "dedup"
                else "ran"),
               o.X.Response.wall_s,
               o.X.Response.result ))
           jobs collected);
    let jobs, measured, cached, deduped, failed, wall_s =
      match !summary with Some s -> s | None -> assert false
    in
    Printf.printf
      "%d jobs via %s: %d measured, %d cached, %d deduped, %d failed; \
       job time %.2fs\n"
      jobs socket measured cached deduped failed wall_s;
    Option.iter
      (fun path ->
        write_json path
          (O.Json.Obj
             [
               ("scale", O.Json.Float scale);
               ("jobs", O.Json.Int jobs);
               ("measured", O.Json.Int measured);
               ("cached", O.Json.Int cached);
               ("deduped", O.Json.Int deduped);
               ("failed", O.Json.Int failed);
               ("job_time_s", O.Json.Float wall_s);
               ( "outcomes",
                 O.Json.List (List.map X.Response.outcome_to_json collected) );
             ]))
      json;
    if failed > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Submit a job batch to a running $(b,repro serve) daemon, \
             stream per-job progress, and print the sweep-style table. \
             Results are byte-identical to running the same jobs \
             in-process.")
    Term.(const run $ socket_arg $ workloads $ techniques $ spec_term $ all
          $ no_cache_arg $ quiet_arg $ json_arg)

let ctl_cmd =
  let action =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ACTION"
           ~doc:"ping | stats | health | trace-dump | query | invalidate \
                 | shutdown.")
  in
  let as_json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"With $(b,stats): print the raw server_stats JSON instead \
                 of the text summary.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH"
           ~doc:"With $(b,trace-dump): write the Perfetto trace JSON to \
                 $(docv) instead of stdout.")
  in
  let workload =
    Arg.(value & opt (some string) None & info [ "w"; "workload" ] ~docv:"NAME"
           ~doc:"Job workload, for $(b,query) and $(b,invalidate).")
  in
  let technique =
    Arg.(value & opt string "shard" & info [ "t"; "technique" ] ~docv:"TECH"
           ~doc:"Job technique, for $(b,query) and $(b,invalidate).")
  in
  let all =
    Arg.(value & flag & info [ "all" ]
           ~doc:"With $(b,invalidate): drop the daemon's whole result cache.")
  in
  let run socket action w t spec all as_json out =
    let spec_for verb =
      match w with
      | Some workload -> spec ~workload ~technique:t
      | None -> cli_error "%s needs -w NAME (and -t TECH)" verb
    in
    let client = connect socket in
    let rpc req =
      X.Server.Client.send client req;
      match X.Server.Client.recv client with
      | Stdlib.Error msg -> cli_error "server connection lost: %s" msg
      | Ok (X.Response.Error { message }) -> cli_error "%s" message
      | Ok resp -> resp
    in
    let unexpected () = cli_error "unexpected response (protocol mismatch?)" in
    (match action with
     | "ping" -> (
       match rpc X.Request.Ping with
       | X.Response.Pong -> print_endline "pong"
       | _ -> unexpected ())
     | "stats" -> (
       match rpc X.Request.Stats with
       | X.Response.Server_stats s when as_json ->
         print_endline
           (O.Json.to_string ~pretty:true
              (X.Response.to_json (X.Response.Server_stats s)))
       | X.Response.Server_stats s ->
         Printf.printf
           "sessions=%d submitted=%d executed=%d dedup_hits=%d \
            cache_hits=%d queued=%d running=%d uptime=%.1fs\n"
           s.X.Response.sessions s.X.Response.submitted s.X.Response.executed
           s.X.Response.dedup_hits s.X.Response.cache_hits s.X.Response.queued
           s.X.Response.running s.X.Response.uptime_s;
         (match s.X.Response.svc with
          | None -> ()
          | Some svc ->
            let module S = O.Svc_metrics in
            List.map
              (fun m ->
                match S.value m svc with
                | S.Int i -> Printf.sprintf "%s=%d" (S.name m) i
                | S.Float f -> Printf.sprintf "%s=%.2f" (S.name m) f)
              S.all
            |> String.concat " " |> print_endline);
         (match s.X.Response.stages with
          | [] -> ()
          | stages ->
            (* Quantiles report the upper bucket bound: a conservative
               "no slower than" figure. *)
            let q h p =
              match O.Hist.quantile h p with
              | Some (_, hi) -> hi *. 1e3
              | None -> 0.
            in
            Printf.printf "%-12s %8s %10s %10s %10s %10s\n" "stage" "count"
              "mean_ms" "p50_ms" "p95_ms" "p99_ms";
            List.iter
              (fun (name, h) ->
                Printf.printf "%-12s %8d %10.3f %10.3f %10.3f %10.3f\n" name
                  (O.Hist.count h)
                  (O.Hist.mean h *. 1e3)
                  (q h 0.5) (q h 0.95) (q h 0.99))
              stages)
       | _ -> unexpected ())
     | "health" -> (
       match rpc X.Request.Health with
       | X.Response.Health h ->
         Printf.printf
           "ok uptime=%.1fs schema=%d workers=%d sessions=%d queued=%d \
            running=%d\n"
           h.X.Response.h_uptime_s h.X.Response.h_schema
           h.X.Response.h_workers h.X.Response.h_sessions
           h.X.Response.h_queued h.X.Response.h_running
       | _ -> unexpected ())
     | "trace-dump" | "trace_dump" -> (
       match rpc X.Request.Trace_dump with
       | X.Response.Trace_dump { spans; dropped; trace } -> (
         match out with
         | Some path ->
           write_json path trace;
           Printf.printf "%d span(s), %d dropped\n" spans dropped
         | None -> print_endline (O.Json.to_string ~pretty:true trace))
       | _ -> unexpected ())
     | "query" -> (
       match rpc (X.Request.Query (spec_for "query")) with
       | X.Response.Queried { hit = true; run = Some r } -> print_run r
       | X.Response.Queried _ ->
         print_endline "miss";
         exit 1
       | _ -> unexpected ())
     | "invalidate" -> (
       let req =
         if all then X.Request.Invalidate None
         else X.Request.Invalidate (Some (spec_for "invalidate"))
       in
       match rpc req with
       | X.Response.Invalidated { removed } ->
         Printf.printf "removed %d cached result(s)\n" removed
       | _ -> unexpected ())
     | "shutdown" -> (
       match rpc X.Request.Shutdown with
       | X.Response.Bye -> print_endline "server shut down"
       | _ -> unexpected ())
     | other ->
       cli_error
         "unknown action %S; valid actions: ping, stats, health, \
          trace-dump, query, invalidate, shutdown"
         other);
    X.Server.Client.close client
  in
  Cmd.v
    (Cmd.info "ctl"
       ~doc:"Poke a running $(b,repro serve) daemon: liveness and health, \
             scheduler counters and per-stage latency histograms, request \
             traces, cache probes and invalidation, shutdown.")
    Term.(const run $ socket_arg $ action $ workload $ technique $ spec_term
          $ all $ as_json $ out)

let () =
  let doc = "Reproduction of 'Judging a Type by Its Pointer' (ASPLOS '21)." in
  let info = Cmd.info "repro" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; profile_cmd; trace_cmd; compare_cmd; check_cmd;
            figure_cmd; table_cmd; sweep_cmd; init_cmd; ablation_cmd;
            serve_cmd; submit_cmd; ctl_cmd ]))
