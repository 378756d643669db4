(* The repository benchmark. Run from the repository root:

     dune exec bench/perf/perf.exe -- [--workload NAME]... [--seed N]
       [--seconds S] [--trace 0|1] [--out FILE] [--update-digests]
     dune exec bench/perf/perf.exe -- --check-scale1

   Each workload runs in its own child process (so its peak RSS is its
   own) and measures for about [--seconds]. Untraced, it reports the
   end-to-end metrics; with [--trace 1] it records spans, writes them to
   _perf/trace-<workload>.json and reports the per-layer metrics. The
   last line of standard output is one JSON object: correct, attempted,
   failed and metrics. The exit code is 1 when a correctness check
   failed. [--check-scale1] instead runs the paper matrix once with whole
   iterations and checks it against BENCH_scale1.json. See
   bench/perf/README.md. *)

module Json = Repro_obs.Json

let workloads = [ "paper-matrix"; "translated"; "serve-hot"; "serve-cold" ]

let run_one name ~seed ~seconds ~trace ~digests =
  match name with
  | "paper-matrix" -> Sweeps.run Sweeps.paper_matrix ~seed ~seconds ~trace ~digests
  | "translated" -> Sweeps.run Sweeps.translated ~seed ~seconds ~trace ~digests
  | "serve-hot" -> Serve.run Serve.Hot ~seed ~seconds ~trace ~digests
  | "serve-cold" -> Serve.run Serve.Cold ~seed ~seconds ~trace ~digests
  | _ -> invalid_arg name

let kill_group pid = try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ()

(* Run one workload in a child process, which leads a process group of
   its own (with the daemon it forks, if any) and hands its outcome back
   as one JSON file. Once the child has ended, whatever is left in its
   group — a daemon orphaned by a crash — is killed. *)
let in_child name ~seed ~seconds ~trace ~digests =
  let crashed msg = Outcome.crashed ~workload:name ~seed ~trace msg in
  Common.ensure_dir "_perf";
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    ignore (Unix.setsid ());
    let o =
      try run_one name ~seed ~seconds ~trace ~digests
      with e -> crashed (name ^ ": " ^ Printexc.to_string e)
    in
    Repro_obs.Sink.write_file
      ~path:(Common.outcome_path (Unix.getpid ()))
      (Json.to_string (Outcome.to_json o));
    Unix._exit 0
  | pid -> (
    let rec wait () =
      try snd (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    let reap () =
      kill_group pid;
      Serve.remove_leftovers pid
    in
    let stop_child signal code =
      Sys.set_signal signal
        (Sys.Signal_handle
           (fun _ ->
             kill_group pid;
             ignore (wait ());
             reap ();
             exit code))
    in
    stop_child Sys.sigint 130;
    stop_child Sys.sigterm 143;
    let status = wait () in
    reap ();
    Sys.set_signal Sys.sigint Sys.Signal_default;
    Sys.set_signal Sys.sigterm Sys.Signal_default;
    let path = Common.outcome_path pid in
    let text = try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> "" in
    (try Sys.remove path with Sys_error _ -> ());
    match (status, Result.bind (Json.of_string text) Outcome.of_json) with
    | Unix.WEXITED 0, Ok o -> o
    | Unix.WEXITED 0, Error e -> crashed ("unreadable outcome: " ^ e)
    | (Unix.WEXITED n | Unix.WSIGNALED n | Unix.WSTOPPED n), _ ->
      crashed (Printf.sprintf "workload process ended with status %d" n))

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let print_outcome (o : Outcome.t) =
  Printf.printf "== %s  seed %d  %s  %d ops, %d failed  %s\n" o.workload o.seed
    (if o.trace then "traced" else "untraced")
    o.attempted o.failed
    (if Outcome.correct o then "correct" else "INCORRECT");
  List.iter (fun p -> Printf.printf "   ! %s\n" p) o.problems;
  List.iter
    (fun (name, v) ->
      let unit_ = match Metrics.find name with Some d -> d.Metrics.unit_ | None -> "" in
      Printf.printf "   %-34s %14s %s\n" name (fmt_value v) unit_)
    o.metrics;
  List.iter
    (fun (k, v) ->
      match (k, v) with
      | "self_times", Json.List rows ->
        Printf.printf "   %-24s %6s %12s %12s\n" "span" "count" "total_s" "self_s";
        List.iter
          (fun r ->
            let get conv default k = Option.value ~default (Option.bind (Json.member k r) conv) in
            Printf.printf "   %-24s %6d %12.4f %12.4f\n"
              (get Json.string_opt "" "span") (get Json.int_opt 0 "count")
              (get Json.float_opt 0. "total_s") (get Json.float_opt 0. "self_s"))
          rows
      | _ -> Printf.printf "   %s: %s\n" k (Json.to_string v))
    o.notes

let host () =
  let field file key =
    match In_channel.with_open_text file In_channel.input_all with
    | text ->
      List.find_map
        (fun line ->
          match String.index_opt line ':' with
          | Some i when String.trim (String.sub line 0 i) = key ->
            Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
          | _ -> None)
        (String.split_on_char '\n' text)
    | exception Sys_error _ -> None
  in
  let str = function Some s -> Json.String s | None -> Json.Null in
  Json.Obj
    [
      ("cpu", str (field "/proc/cpuinfo" "model name"));
      ("cores", Json.Int (Domain.recommended_domain_count ()));
      ("mem_total", str (field "/proc/meminfo" "MemTotal"));
      ("ocaml", Json.String Sys.ocaml_version);
    ]

let check_scale1 () =
  match Sweeps.check_scale1 () with
  | problems, summary ->
    List.iter (fun p -> Printf.printf "   ! %s\n" p) problems;
    Option.iter
      (fun (cells, err, wall) ->
        Printf.printf "%d cells in %.1f s; Fig. 6 GM mean absolute error %.4f\n" cells wall err)
      summary;
    Printf.printf "%s\n"
      (if problems = [] then "cycles and instructions equal " ^ Sweeps.scale1_path
       else Printf.sprintf "%d mismatches against %s" (List.length problems) Sweeps.scale1_path);
    exit (if problems = [] then 0 else 1)
  | exception (Sys_error e | Failure e) ->
    prerr_endline e;
    exit 1

let () =
  let chosen = ref [] and seed = ref 42 and seconds = ref 20 and trace = ref 0 in
  let out = ref None and update = ref false and scale1 = ref false in
  let usage =
    "perf.exe [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--out FILE] \
     [--update-digests]\n       perf.exe --check-scale1\nworkloads: "
    ^ String.concat ", " workloads
  in
  let bad msg =
    prerr_endline msg;
    prerr_endline usage;
    exit 2
  in
  Arg.parse
    [
      ( "--workload",
        Arg.String (fun w -> chosen := w :: !chosen),
        "NAME  run this workload (repeatable; default all)" );
      ("--seed", Arg.Set_int seed, "N  seed of every workload's inputs (default 42)");
      ("--seconds", Arg.Set_int seconds, "S  measuring time per workload (default 20)");
      ("--trace", Arg.Set_int trace, "0|1  1 = traced run, per-layer metrics (default 0)");
      ("--out", Arg.String (fun f -> out := Some f), "FILE  also write every outcome as JSON");
      ("--update-digests", Arg.Set update, " record this run's seed-42 digests in " ^ Digests.path);
      ( "--check-scale1",
        Arg.Set scale1,
        " run the paper matrix once with whole iterations; check it against "
        ^ Sweeps.scale1_path );
    ]
    (fun a -> bad ("unexpected argument " ^ a))
    usage;
  if !scale1 then check_scale1 ();
  let chosen = if !chosen = [] then workloads else List.rev !chosen in
  List.iter (fun w -> if not (List.mem w workloads) then bad ("unknown workload " ^ w)) chosen;
  if !trace <> 0 && !trace <> 1 then bad "--trace takes 0 or 1";
  if !seconds < 1 then bad "--seconds must be at least 1";
  if !update && !seed <> Digests.seed then bad "--update-digests needs --seed 42";
  let digests =
    try Digests.load ()
    with Sys_error e | Failure e -> bad ("cannot read digests (run from the repository root): " ^ e)
  in
  let trace = !trace = 1 in
  let outcomes =
    List.map
      (fun name ->
        let o = in_child name ~seed:!seed ~seconds:!seconds ~trace ~digests in
        print_outcome o;
        o)
      chosen
  in
  let correct = List.for_all Outcome.correct outcomes in
  if !update then begin
    Digests.save
      (List.fold_left
         (fun t (o : Outcome.t) -> Digests.merge t ~workload:o.workload o.digests)
         digests outcomes);
    Printf.printf "updated %s\n" Digests.path
  end;
  Option.iter
    (fun path ->
      Repro_obs.Sink.write_file ~path
        (Json.to_string ~pretty:true
           (Json.Obj
              [
                ("host", host ());
                ("seed", Json.Int !seed);
                ("seconds", Json.Int !seconds);
                ("trace", Json.Bool trace);
                ("workloads", Json.List (List.map Outcome.to_json outcomes));
              ])))
    !out;
  let metrics =
    match outcomes with
    | [ o ] -> Outcome.metric_fields o.metrics
    | _ ->
      List.concat_map
        (fun (o : Outcome.t) -> Outcome.metric_fields ~prefix:(o.workload ^ "/") o.metrics)
        outcomes
  in
  let total f = List.fold_left (fun a o -> a + f o) 0 outcomes in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int (total (fun o -> o.Outcome.attempted)));
            ("failed", Json.Int (total (fun o -> o.Outcome.failed)));
            ("metrics", Json.Obj metrics);
          ]));
  exit (if correct then 0 else 1)
