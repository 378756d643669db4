(* Replay-throughput benchmark for the SoA trace engine.

   For every (workload, technique) cell of the paper matrix — plus the
   DYNA column (CUDA dispatch over DynaSOAr SoA blocks) — this runs the
   functional phase once with trace retention on, then re-times the
   retained traces through a fresh memory hierarchy several times,
   reporting simulated instructions and cycles per wall-second and the
   minor words a replay allocates, split into a per-launch figure and a
   per-instruction figure (the zero-allocation invariant makes the
   per-instruction figure ~0). A synthetic canned-trace job with a
   fixed instruction mix is included as a machine-independent reference
   point across commits.

   Usage: bench/sim_bench.exe [--scale F] [--reps N] [--out PATH]
   Flags override the environment:
     REPRO_SCALE     workload scale factor (default 0.05)
     REPRO_SIM_REPS  timed replay repetitions per job (default 5)
     REPRO_SIM_OUT   output JSON path (default SIM_BENCH.json)

   The dedup column is phase-1 interning's stream-deduplication ratio
   (warps sealed / unique streams kept): how many identical warp
   instruction streams each retained representative stands for. Replay
   wall time is unaffected (every warp still replays -- its addresses
   are private); the ratio gates the emission-side win.

   Every column times [Sm.run], the one replay loop: the plain column
   with telemetry off, the tracer column with an event ring, the vm
   column with the job's page table attached. The tracer overhead
   therefore prices recording alone. Per-launch words come from
   replaying the same launch shapes with every warp's trace emptied;
   per-instruction words are the rest of the plain passes' allocation
   divided by the instructions replayed. Replays re-run traces recorded once, so
   their cache state differs from a real multi-iteration run — the
   numbers measure engine speed, not workload figures (bench/main.exe
   does those). *)

module G = Repro_gpu
module R = Repro_core
module W = Repro_workloads
module O = Repro_obs
module Rng = Repro_util.Rng

let env_or name ~default ~parse =
  match Sys.getenv_opt name with
  | Some s -> (try parse s with _ -> default)
  | None -> default

(* --scale/--reps/--out beat the REPRO_* environment (kept for the CI
   recipes that predate the flags). *)
let scale, reps, out_path =
  let scale = ref (env_or "REPRO_SCALE" ~default:0.05 ~parse:float_of_string) in
  let reps =
    ref (env_or "REPRO_SIM_REPS" ~default:5 ~parse:(fun s -> max 1 (int_of_string s)))
  in
  let out = ref (env_or "REPRO_SIM_OUT" ~default:"SIM_BENCH.json" ~parse:Fun.id) in
  let usage = "sim_bench.exe [--scale F] [--reps N] [--out PATH]" in
  Arg.parse
    [
      ("--scale", Arg.Set_float scale, "F  workload scale factor (default 0.05)");
      ( "--reps",
        Arg.Int (fun n -> reps := max 1 n),
        "N  timed replay repetitions per job (default 5)" );
      ("--out", Arg.Set_string out, "PATH  output JSON path (default SIM_BENCH.json)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  (!scale, !reps, !out)

type result = {
  job : string;
  launches : int;
  instrs : int;         (* simulated warp instructions per replay pass *)
  cycles : float;       (* simulated cycles per replay pass *)
  wall_s : float;       (* for [reps] passes *)
  minor_words : float;  (* for [reps] passes *)
  launch_words : float; (* the same passes' launch shapes, traces emptied *)
  tel_wall_s : float;   (* same passes with the event tracer on *)
  vm_wall_s : float;    (* same passes with address translation on *)
  dedup : float;        (* phase-1 interning ratio: warps / unique streams *)
}

let minstr_per_s r = float_of_int (r.instrs * reps) /. r.wall_s /. 1e6
let tel_minstr_per_s r = float_of_int (r.instrs * reps) /. r.tel_wall_s /. 1e6
let mcyc_per_s r = r.cycles *. float_of_int reps /. r.wall_s /. 1e6
let words_per_instr r =
  (r.minor_words -. r.launch_words) /. float_of_int (r.instrs * reps)

let words_per_launch r = r.launch_words /. float_of_int (r.launches * reps)

let tracer_overhead_pct r =
  if r.wall_s <= 0. then 0.
  else 100. *. (r.tel_wall_s -. r.wall_s) /. r.wall_s

(* Host cost of the translation model itself (TLB lookups on every
   coalesced sector), not the simulated walk latency. *)
let vm_overhead_pct r =
  if r.wall_s <= 0. then 0.
  else 100. *. (r.vm_wall_s -. r.wall_s) /. r.wall_s

let no_instrs = G.Trace.create ()

(* Replay [launches] through a fresh hierarchy [reps] times; one untimed
   warm-up pass first so code and data are hot. Then the same passes
   again with the event ring recording (the tracer-overhead column;
   target is within ~10% of the plain path). *)
let time_replay ~job ~cfg ~vm ?(dedup = 1.) launches =
  let mp = G.Mem_path.create cfg in
  let stats = G.Stats.create () in
  let instrs =
    List.fold_left
      (fun acc traces ->
        Array.fold_left
          (fun acc t -> acc + G.Trace.instruction_total t)
          acc traces)
      0 launches
  in
  let replay_once () =
    let cycles = ref 0. in
    List.iter
      (fun traces -> cycles := !cycles +. G.Sm.run cfg mp ~stats ~traces)
      launches;
    !cycles
  in
  let cycles = replay_once () in
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (replay_once ())
  done;
  let wall_s = Unix.gettimeofday () -. t0 in
  let minor_words = Gc.minor_words () -. w0 in
  (* The same launches with every warp's trace emptied: what a replay
     allocates for the launch shape alone. *)
  let shapes = List.map (Array.map (fun _ -> no_instrs)) launches in
  let shape_mp = G.Mem_path.create cfg in
  let replay_shapes () =
    List.iter
      (fun traces -> ignore (G.Sm.run cfg shape_mp ~stats ~traces))
      shapes
  in
  replay_shapes ();
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    replay_shapes ()
  done;
  let launch_words = Gc.minor_words () -. w0 in
  (* Tracer-on passes: ring-only config (no windowing), fresh hierarchy
     so cache behaviour matches the plain passes. *)
  let tel =
    G.Telemetry.create
      { G.Telemetry.window = None; trace = true;
        trace_capacity = G.Telemetry.default_capacity }
  in
  let ring = Option.get tel.G.Telemetry.ring in
  let tel_mp = G.Mem_path.create cfg in
  let tel_stats = G.Stats.create () in
  let replay_tel () =
    G.Telemetry.Ring.begin_launch ring ~base:0.;
    List.iter
      (fun traces ->
        ignore (G.Sm.run ~telemetry:tel cfg tel_mp ~stats:tel_stats ~traces))
      launches
  in
  replay_tel ();
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    replay_tel ()
  done;
  let tel_wall_s = Unix.gettimeofday () -. t0 in
  (* Translation-on passes: the job's page table and TLB hierarchy
     attached to another fresh hierarchy (the vm-overhead column;
     simulated cycles change, wall time is what we measure here). *)
  let vm_mp = G.Mem_path.create cfg in
  G.Mem_path.set_vm vm_mp (Some vm);
  let vm_stats = G.Stats.create () in
  let replay_vm () =
    List.iter
      (fun traces -> ignore (G.Sm.run cfg vm_mp ~stats:vm_stats ~traces))
      launches
  in
  replay_vm ();
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    replay_vm ()
  done;
  let vm_wall_s = Unix.gettimeofday () -. t0 in
  { job; launches = List.length launches; instrs; cycles; wall_s; minor_words;
    launch_words; tel_wall_s; vm_wall_s; dedup }

let workload_job ?alloc (w : W.Workload.t) technique =
  (* Built with translation on so the runtime assembles the job's real
     page table (coalesce policy, the allocator's contiguity report);
     the plain and tracer passes below use their own untranslated
     hierarchies, so their numbers are unaffected. *)
  let params =
    { (W.Workload.default_params technique) with
      scale; alloc; pages = Some Repro_vm.Policy.Coalesce }
  in
  let inst = w.W.Workload.build params in
  let dev = R.Runtime.device inst.W.Workload.rt in
  G.Device.retain_traces dev true;
  for i = 0 to inst.W.Workload.iterations - 1 do
    inst.W.Workload.run_iteration i
  done;
  let launches = G.Device.retained_traces dev in
  G.Device.retain_traces dev false;
  R.Runtime.build_vm inst.W.Workload.rt;
  let vm =
    match R.Runtime.vm inst.W.Workload.rt with
    | Some vm -> vm
    | None -> assert false
  in
  let column =
    match alloc with
    | None -> R.Technique.name technique
    | Some fam -> String.lowercase_ascii (R.Alloc_family.column_name technique fam)
  in
  let job = Printf.sprintf "%s/%s" w.W.Workload.name column in
  time_replay ~job ~cfg:(G.Device.config dev) ~vm
    ~dedup:(G.Device.dedup_ratio dev) launches

(* Fixed-mix synthetic traces (one aligned load, one aligned store, a
   short compute chain, a branch, a virtual call — repeating), so the
   reference job has a stable instruction distribution at any scale. *)
let canned_job () =
  let cfg = G.Config.default in
  let heap = Repro_mem.Page_store.create () in
  let rng = Rng.create ~seed:42 in
  let n_warps = 64 and n_instrs = 2000 in
  (* Emitted through the interning pool like a device launch would, so
     the reference job exercises (and reports) the dedup path: every warp
     shares the instruction mix, only the rng-drawn addresses differ. *)
  let pool = G.Trace.Intern.create () in
  let scratch = G.Trace.create ~capacity:256 () in
  let traces =
    Array.init n_warps (fun warp_id ->
        let lanes = Array.init 32 (fun l -> (warp_id * 32) + l) in
        G.Trace.reset scratch;
        let ctx = G.Warp_ctx.create ~trace:scratch ~heap ~warp_id ~lanes () in
        for i = 0 to n_instrs - 1 do
          match i mod 5 with
          | 0 ->
            let base = Rng.int rng (1 lsl 20) * 8 in
            let addrs = Array.map (fun l -> base + (8 * (l land 31))) lanes in
            ignore (G.Warp_ctx.load ctx ~label:G.Label.Body addrs)
          | 1 ->
            let base = Rng.int rng (1 lsl 22) * 8 in
            let addrs = Array.map (fun l -> base + (8 * (l land 31))) lanes in
            G.Warp_ctx.store ctx ~label:G.Label.Body addrs lanes
          | 2 -> G.Warp_ctx.compute ctx ~n:3 ~label:G.Label.Body
          | 3 -> G.Warp_ctx.ctrl ctx ~label:G.Label.Body
          | _ -> G.Warp_ctx.call_indirect ctx ~label:G.Label.Call
        done;
        G.Trace.Intern.seal pool scratch)
  in
  let dedup =
    let unique = G.Trace.Intern.unique pool in
    if unique = 0 then 1.
    else float_of_int (G.Trace.Intern.sealed pool) /. float_of_int unique
  in
  (* One flat 4K arena covering the synthetic address range. *)
  let table =
    Repro_vm.Page_table.build ~policy:Repro_vm.Policy.Flat_4k
      ~arenas:[ (0, 33 * 1024 * 1024) ] ~promoted:[] ()
  in
  let vm = Repro_vm.Vm.create ~n_sms:cfg.G.Config.n_sms ~table () in
  time_replay ~job:"canned/mix" ~cfg ~vm ~dedup [ traces ]

let result_json r =
  O.Json.Obj
    [
      ("job", O.Json.String r.job);
      ("launches", O.Json.Int r.launches);
      ("instructions", O.Json.Int r.instrs);
      ("cycles", O.Json.Float r.cycles);
      ("reps", O.Json.Int reps);
      ("wall_s", O.Json.Float r.wall_s);
      ("minstr_per_s", O.Json.Float (minstr_per_s r));
      ("mcycles_per_s", O.Json.Float (mcyc_per_s r));
      ("minor_words_per_instr", O.Json.Float (words_per_instr r));
      ("minor_words_per_launch", O.Json.Float (words_per_launch r));
      ("tracer_wall_s", O.Json.Float r.tel_wall_s);
      ("tracer_minstr_per_s", O.Json.Float (tel_minstr_per_s r));
      ("tracer_overhead_pct", O.Json.Float (tracer_overhead_pct r));
      ("vm_wall_s", O.Json.Float r.vm_wall_s);
      ("vm_overhead_pct", O.Json.Float (vm_overhead_pct r));
      ("dedup_ratio", O.Json.Float r.dedup);
    ]

let () =
  Printf.printf "sim_bench: scale=%g reps=%d\n%!" scale reps;
  Printf.printf "%-18s %10s %9s %9s %9s %12s %12s %9s %6s %6s %7s\n" "job"
    "instrs" "Minstr/s" "Mcyc/s" "wall(s)" "words/instr" "words/launch"
    "tracer" "ovh%" "vm%" "dedup";
  let results = ref [] in
  let emit r =
    results := r :: !results;
    Printf.printf
      "%-18s %10d %9.2f %9.2f %9.3f %12.3f %12.0f %9.2f %+6.1f %+6.1f %6.1fx\n%!"
      r.job r.instrs (minstr_per_s r) (mcyc_per_s r) r.wall_s
      (words_per_instr r) (words_per_launch r) (tel_minstr_per_s r)
      (tracer_overhead_pct r)
      (vm_overhead_pct r) r.dedup
  in
  emit (canned_job ());
  List.iter
    (fun (w : W.Workload.t) ->
      List.iter (fun t -> emit (workload_job w t)) R.Technique.all_paper;
      (* The sixth sweep column: CUDA dispatch over DynaSOAr SoA blocks. *)
      emit (workload_job ~alloc:R.Alloc_family.Dyna_soa w R.Technique.Cuda))
    W.Registry.all;
  let results = List.rev !results in
  let total_instrs =
    List.fold_left (fun a r -> a + (r.instrs * reps)) 0 results
  in
  let total_wall = List.fold_left (fun a r -> a +. r.wall_s) 0. results in
  let total_words = List.fold_left (fun a r -> a +. r.minor_words) 0. results in
  let total_launch_words =
    List.fold_left (fun a r -> a +. r.launch_words) 0. results
  in
  let total_launches =
    List.fold_left (fun a r -> a + (r.launches * reps)) 0 results
  in
  let agg_words_per_instr =
    (total_words -. total_launch_words) /. float_of_int total_instrs
  in
  let agg_words_per_launch =
    total_launch_words /. float_of_int total_launches
  in
  let total_tel_wall =
    List.fold_left (fun a r -> a +. r.tel_wall_s) 0. results
  in
  let total_vm_wall =
    List.fold_left (fun a r -> a +. r.vm_wall_s) 0. results
  in
  let agg_overhead =
    if total_wall > 0. then
      100. *. (total_tel_wall -. total_wall) /. total_wall
    else 0.
  in
  let agg_vm_overhead =
    if total_wall > 0. then 100. *. (total_vm_wall -. total_wall) /. total_wall
    else 0.
  in
  Printf.printf
    "aggregate: %.2f Minstr/s over %d jobs, %.3f minor words/instr + %.0f \
     per launch, tracer overhead %+.1f%%, translation overhead %+.1f%%\n%!"
    (float_of_int total_instrs /. total_wall /. 1e6)
    (List.length results) agg_words_per_instr agg_words_per_launch
    agg_overhead agg_vm_overhead;
  let json =
    O.Json.Obj
      [
        ("scale", O.Json.Float scale);
        ("reps", O.Json.Int reps);
        ( "aggregate",
          O.Json.Obj
            [
              ( "minstr_per_s",
                O.Json.Float (float_of_int total_instrs /. total_wall /. 1e6) );
              ("minor_words_per_instr", O.Json.Float agg_words_per_instr);
              ("minor_words_per_launch", O.Json.Float agg_words_per_launch);
              ("tracer_overhead_pct", O.Json.Float agg_overhead);
              ("vm_overhead_pct", O.Json.Float agg_vm_overhead);
            ] );
        ("jobs", O.Json.List (List.map result_json results));
      ]
  in
  let oc = open_out out_path in
  output_string oc (O.Json.to_string ~pretty:true json);
  close_out oc;
  Printf.printf "wrote %s\n%!" out_path
