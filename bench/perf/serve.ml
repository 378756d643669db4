(* The daemon workloads: a forked [repro serve] (one worker domain)
   driven over its socket by closed-loop client threads, each on its own
   connection: one on serve-hot, two on serve-cold.

   The daemon is forked before this process starts any thread: OCaml 5
   refuses [Unix.fork] once other domains exist. *)

module X = Repro_exec
module W = Repro_workloads
module A = Repro_core.Alloc_family
module Json = Repro_obs.Json
module Spec = X.Request.Spec
module Client = X.Server.Client

type kind = Hot | Cold

let name = function Hot -> "serve-hot" | Cold -> "serve-cold"

(* serve-hot measures the hot path's service time, so one request is in
   flight at a time: a second client would make its tail one request
   waiting behind the other, in an order the host's scheduler sets.
   serve-cold measures two clients queueing on the one worker. *)
let clients = function Hot -> 1 | Cold -> 2

let now = Common.now

(* serve-hot: 8 specs, every one pre-warmed into the cache, so almost
   every submit is a cache read and the simulator stays idle. *)
let hot_pool seed =
  List.concat_map
    (fun workload ->
      List.concat_map
        (fun technique ->
          List.map
            (fun seed -> Spec.make ~scale:0.02 ~seed ~workload ~technique ())
            [ seed; seed + 1 ])
        [ "tp"; "shard" ])
    [ "Dynasoar/TRAF"; "Dynasoar/GOL" ]
  |> Array.of_list

(* serve-cold: distinct jobs only, so every submit runs the simulator
   and writes the cache. Round [r] is every workload under all six sweep
   columns at seed [seed + r]; within a round a workload's six columns
   are adjacent, so each (workload, seed) group completes together. *)
let cold_round =
  W.Registry.all
  |> List.concat_map (fun w ->
         List.map (fun c -> (w, c)) Repro_experiments.Sweep.default_columns)
  |> Array.of_list

let cold_spec seed k =
  let w, (c : Repro_experiments.Sweep.column) = cold_round.(k mod Array.length cold_round) in
  let alloc = if A.is_default c.technique c.alloc then None else Some (A.name c.alloc) in
  Spec.make ?alloc ~scale:0.1 ~seed:(seed + (k / Array.length cold_round))
    ~workload:(W.Registry.qualified_name w)
    ~technique:(X.Request.technique_to_string c.technique)
    ()

(* --- The daemon ------------------------------------------------------- *)

type daemon = { pid : int; socket : string; cache_dir : string; mutable started : float }

let counter = ref 0

(* The daemon runs with [repro serve]'s default observability (metrics
   and span ring on, no log), as users run it. *)
let fork_daemon () =
  incr counter;
  let base = Printf.sprintf "_perf/%d-%d" (Unix.getpid ()) !counter in
  let d = { pid = 0; socket = base ^ ".sock"; cache_dir = base ^ ".cache"; started = 0. } in
  let cfg =
    {
      X.Server.socket_path = d.socket; workers = 1; cache = true; cache_dir = d.cache_dir;
      obs = X.Server.obs_default ();
    }
  in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 -> Unix._exit (match X.Server.run cfg with () -> 0 | exception _ -> 2)
  | pid -> { d with pid }

let call d req =
  let c = Client.connect d.socket in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      Client.set_timeout c 60.;
      Client.send c req;
      Client.recv c)

(* Poll until the daemon answers [Health]; its uptime then dates the
   daemon's own clock, which its trace dump counts from. *)
let wait_ready d =
  let deadline = now () +. 30. in
  let rec go () =
    match call d X.Request.Health with
    | Ok (X.Response.Health h) -> d.started <- now () -. h.X.Response.h_uptime_s
    | Ok _ | Error _ | (exception Unix.Unix_error _) ->
      (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
       | 0, _ -> ()
       | _ -> failwith "daemon exited during start-up");
      if now () > deadline then failwith "daemon did not answer Health within 30 s";
      Unix.sleepf 0.002;
      go ()
  in
  go ()

let remove_dir dir =
  if Sys.file_exists dir then begin
    ignore (X.Cache.clear ~dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

(* What the daemons of workload process [pid] left under _perf/, when
   that process died before it could stop them. *)
let remove_leftovers pid =
  let prefix = Printf.sprintf "%d-" pid in
  Array.iter
    (fun f ->
      let p = Filename.concat "_perf" f in
      if String.starts_with ~prefix f then
        if Sys.is_directory p then remove_dir p else try Sys.remove p with Sys_error _ -> ())
    (try Sys.readdir "_perf" with Sys_error _ -> [||])

let stop d =
  (try ignore (call d X.Request.Shutdown) with _ -> Unix.kill d.pid Sys.sigkill);
  ignore (Unix.waitpid [] d.pid);
  (try Sys.remove d.socket with Sys_error _ -> ());
  remove_dir d.cache_dir

(* --- Checking results ------------------------------------------------- *)

(* Shared by the client threads: every distinct job's stats digest,
   its run, and the functional result per (workload, seed) that all
   columns must agree on. *)
type checker = {
  lock : Mutex.t;
  digests : (string, string) Hashtbl.t;
  runs : (string, Spec.t * W.Harness.run) Hashtbl.t;
  functional : (string * int, int * int) Hashtbl.t;
  mutable failed : int;
  mutable problems : string list;
}

let checker () =
  {
    lock = Mutex.create ();
    digests = Hashtbl.create 64;
    runs = Hashtbl.create 64;
    functional = Hashtbl.create 64;
    failed = 0;
    problems = [];
  }

let fail v msg =
  Mutex.protect v.lock (fun () ->
      v.failed <- v.failed + 1;
      if List.length v.problems < 20 then v.problems <- msg :: v.problems)

let job_key (s : Spec.t) =
  Printf.sprintf "%s/%s%s/scale=%g/seed=%d" s.Spec.workload s.Spec.technique
    (match s.Spec.alloc with Some a -> "+" ^ a | None -> "")
    s.Spec.scale s.Spec.seed

let check v spec (run : W.Harness.run) =
  let key = job_key spec and d = Digests.of_stats run.W.Harness.stats in
  let problem =
    Mutex.protect v.lock (fun () ->
        let twin =
          match Hashtbl.find_opt v.digests key with
          | Some d' when d' <> d -> Some (key ^ ": two deliveries of one job differ")
          | Some _ -> None
          | None ->
            Hashtbl.replace v.digests key d;
            Hashtbl.replace v.runs key (spec, run);
            None
        in
        let group = (spec.Spec.workload, spec.Spec.seed) in
        let got = (run.W.Harness.checksum, run.W.Harness.result) in
        match Hashtbl.find_opt v.functional group with
        | Some want when want <> got ->
          Some
            (Printf.sprintf "%s seed %d: columns disagree on checksum/result" (fst group)
               (snd group))
        | Some _ -> twin
        | None ->
          Hashtbl.replace v.functional group got;
          twin)
  in
  Option.iter (fail v) problem

(* --- Clients ---------------------------------------------------------- *)

type op = Submit of Spec.t list | Query of Spec.t | Stats

let op_name = function
  | Submit [ _ ] -> "submit"
  | Submit _ -> "batch2"
  | Query _ -> "query"
  | Stats -> "stats"

(* 60 % single submits, 20 % two-job batches, 10 % queries, 10 % stats. *)
let hot_op pool rng =
  let pick () = pool.(Repro_util.Rng.int rng (Array.length pool)) in
  match Repro_util.Rng.int rng 10 with
  | 0 | 1 | 2 | 3 | 4 | 5 -> Submit [ pick () ]
  | 6 | 7 ->
    let a = pick () in
    Submit [ a; pick () ]
  | 8 -> Query (pick ())
  | _ -> Stats

type client_result = { lat : (string * float) list; instrs : int; ops : int }

(* Send one op and read to its final response; returns the job results
   it delivered. *)
let exchange v c ~id op =
  Client.send c
    (match op with
     | Submit specs -> X.Request.Submit { id; cache = true; specs }
     | Query spec -> X.Request.Query spec
     | Stats -> X.Request.Stats);
  let delivered = ref [] in
  let rec drain () =
    match Client.recv c with
    | Ok (X.Response.Job_done { outcome; _ }) ->
      (match outcome.X.Response.result with
       | Ok run -> delivered := (outcome.X.Response.spec, run) :: !delivered
       | Error e -> fail v ("job failed: " ^ e));
      drain ()
    | Ok (X.Response.Batch_done { failed; _ }) ->
      if failed > 0 then fail v "batch reported failures"
    | Ok (X.Response.Ack _ | X.Response.Running _) -> drain ()
    | Ok (X.Response.Queried { hit; run }) -> (
      match (op, run) with
      | Query spec, Some run when hit -> delivered := [ (spec, run) ]
      | _ -> fail v "query missed a pre-warmed job")
    | Ok (X.Response.Server_stats _) -> ()
    | Ok _ -> fail v ("unexpected response to " ^ op_name op)
    | Error e -> fail v ("request failed: " ^ e)
  in
  drain ();
  !delivered

let request_ids = Atomic.make 0

(* One client: its connection, its op stream and (traced) its spans,
   kept across the segments of a load. *)
type conn = { c : Client.t; rng : Repro_util.Rng.t; spans : Spans.t option }

let client v conn ~kind ~seed ~pool ~deadline ~next =
  let lat = ref [] and instrs = ref 0 and ops = ref 0 in
  while now () < deadline do
    let op =
      match kind with
      | Hot -> hot_op pool conn.rng
      | Cold -> Submit [ cold_spec seed (Atomic.fetch_and_add next 1) ]
    in
    let id = Printf.sprintf "q%d" (Atomic.fetch_and_add request_ids 1) in
    let t0 = now () in
    let delivered = exchange v conn.c ~id op in
    let t1 = now () in
    incr ops;
    lat := (op_name op, t1 -. t0) :: !lat;
    Option.iter
      (fun s -> Spans.record s ~args:[ ("request", Json.String id) ] (op_name op) ~t0 ~t1)
      conn.spans;
    List.iter
      (fun (spec, run) ->
        instrs := !instrs + Repro_gpu.Stats.total_instructions run.W.Harness.stats;
        check v spec run)
      delivered
  done;
  { lat = !lat; instrs = !instrs; ops = !ops }

(* One stretch of load, and the host factor of the probes on either side
   of it. *)
type segment = { results : client_result list; seg_wall : float; factor : float }
type load = { segments : segment list; recorders : Spans.t list }

let segment_s = 2.

(* The load runs in segments of [segment_s]. Before the first and after
   each, with the clients and the daemon idle, the host is probed
   ({!Calib}). [next] numbers serve-cold's jobs; it belongs to the
   daemon, so a second load on it continues with jobs it has not seen. *)
let load v d calib ~kind ~seed ~next ~seconds ~traced =
  let conns =
    List.init (clients kind) (fun i ->
        let c = Client.connect d.socket in
        Client.set_timeout c 120.;
        {
          c;
          rng = Repro_util.Rng.create ~seed:((seed * 7919) + i);
          spans = (if traced then Some (Spans.create ~tid:(i + 1)) else None);
        })
  in
  let pool = hot_pool seed in
  let wall = ref 0. and segments = ref [] in
  ignore (Calib.probe calib);
  while !wall < seconds do
    let start = now () in
    let deadline = start +. Float.min segment_s (seconds -. !wall) in
    let slots = Array.make (List.length conns) None in
    let threads =
      List.mapi
        (fun i conn ->
          Thread.create
            (fun () ->
              slots.(i) <-
                (try Some (client v conn ~kind ~seed ~pool ~deadline ~next)
                 with e ->
                   fail v ("client failed: " ^ Printexc.to_string e);
                   None))
            ())
        conns
    in
    List.iter Thread.join threads;
    let seg_wall = now () -. start in
    wall := !wall +. seg_wall;
    ignore (Calib.probe calib);
    let f = Calib.factors calib in
    let results = List.filter_map Fun.id (Array.to_list slots) in
    segments :=
      { results; seg_wall; factor = Calib.between f (Array.length f - 2) } :: !segments
  done;
  List.iter (fun conn -> Client.close conn.c) conns;
  { segments = List.rev !segments; recorders = List.filter_map (fun c -> c.spans) conns }

(* Latencies in seconds, each divided by [factor] of its segment. *)
let latencies ?op ?(factor = fun _ -> 1.) l =
  let wanted o = op = None || op = Some o in
  l.segments
  |> List.concat_map (fun s ->
         let f = factor s in
         List.concat_map
           (fun r -> List.filter_map (fun (o, x) -> if wanted o then Some (x /. f) else None) r.lat)
           s.results)
  |> Array.of_list

let seg_ops s = List.fold_left (fun a r -> a + r.ops) 0 s.results
let seg_instrs s = List.fold_left (fun a r -> a + r.instrs) 0 s.results
let ops l = List.fold_left (fun a s -> a + seg_ops s) 0 l.segments
let wall l = Common.sum (fun s -> s.seg_wall) l.segments

let server_stats d =
  match call d X.Request.Stats with
  | Ok (X.Response.Server_stats s) -> s
  | _ -> failwith "daemon returned no stats"

(* Pre-warm: run the whole pool once, so later submits are cache reads. *)
let prewarm v d seed =
  let c = Client.connect d.socket in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      Client.set_timeout c 120.;
      ignore (exchange v c ~id:"prewarm" (Submit (Array.to_list (hot_pool seed)))))

let ready v ~kind ~seed =
  let d = fork_daemon () in
  (try
     wait_ready d;
     if kind = Hot then prewarm v d seed
   with e ->
     (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
     ignore (Unix.waitpid [] d.pid);
     remove_dir d.cache_dir;
     raise e);
  d

(* --- Layer timings measured in this process --------------------------- *)

(* Per distinct result: encode and decode of its [Job_done] line, and a
   cache store and lookup into a scratch directory — medians of five. *)
let codec_and_cache v =
  let dir = Printf.sprintf "_perf/%d-codec.cache" (Unix.getpid ()) in
  let results =
    Hashtbl.fold (fun key r acc -> (key, r) :: acc) v.runs []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.filteri (fun i _ -> i < 16)
    |> List.map snd
  in
  let med f = Stat.median (Array.init 5 (fun _ -> let t0 = now () in f (); now () -. t0)) in
  let per =
    List.map
      (fun (spec, run) ->
        let job = match Spec.resolve spec with Ok j -> j | Error e -> failwith e in
        let outcome =
          { X.Response.spec; cached = false; deduped = false; wall_s = 0.; result = Ok run }
        in
        let response = X.Response.Job_done { id = "q0"; index = 0; outcome } in
        let line = X.Response.to_line response in
        let enc = med (fun () -> ignore (X.Response.to_line response)) in
        let dec = med (fun () -> ignore (X.Response.of_line line)) in
        let store = med (fun () -> X.Cache.store ~dir job run) in
        let lookup =
          med (fun () ->
              if X.Cache.lookup ~dir job = None then fail v "scratch cache lookup missed")
        in
        [ float_of_int (String.length line); enc; dec; lookup; store ])
      results
  in
  remove_dir dir;
  let mean i =
    Common.ratio (Common.sum (fun l -> List.nth l i) per) (float_of_int (List.length per))
  in
  [
    ("exec.wire_bytes", mean 0);
    ("exec.wire_encode_ms", mean 1 *. 1e3);
    ("exec.wire_decode_ms", mean 2 *. 1e3);
    ("exec.cache_lookup_ms", mean 3 *. 1e3);
    ("exec.cache_store_ms", mean 4 *. 1e3);
  ]

(* The daemon's span ring, re-homed onto its own pid and onto this
   process's time axis. *)
let daemon_events d =
  match call d X.Request.Trace_dump with
  | Ok (X.Response.Trace_dump { trace; _ }) ->
    let shift = (d.started -. Spans.epoch) *. 1e6 in
    let events =
      Option.value ~default:[] (Option.bind (Json.member "traceEvents" trace) Json.list_opt)
    in
    List.map
      (function
        | Json.Obj fields ->
          Json.Obj
            (List.map
               (function
                 | "pid", _ -> ("pid", Json.Int d.pid)
                 | "ts", Json.Float ts when List.assoc_opt "ph" fields = Some (Json.String "X") ->
                   ("ts", Json.Float (ts +. shift))
                 | "ts", Json.Int ts when List.assoc_opt "ph" fields = Some (Json.String "X") ->
                   ("ts", Json.Float (float_of_int ts +. shift))
                 | kv -> kv)
               fields)
        | e -> e)
      events
  | _ -> failwith "daemon returned no trace dump"

let stage_values (s : X.Response.server_stats) =
  List.concat_map
    (fun stage ->
      match List.assoc_opt stage s.X.Response.stages with
      | Some h ->
        let p50 = match Repro_obs.Hist.quantile h 0.5 with Some (lo, _) -> lo | None -> 0. in
        [ (("exec.stage." ^ stage ^ "_ms", p50 *. 1e3), (stage, Repro_obs.Hist.count h)) ]
      | None -> [])
    Metrics.stages

let served_without_run (s : X.Response.server_stats) =
  Common.ratio
    (float_of_int (s.X.Response.cache_hits + s.X.Response.dedup_hits))
    (float_of_int s.X.Response.submitted)

(* --- The workload ----------------------------------------------------- *)

let setups = 9

(* Load run on the daemon before the measured load and left out of the
   metrics (its results are still checked): the first second after the
   pre-warm ran about 7 % slower than the rest on serve-hot. *)
let warmup_s = 1.

let run kind ~seed ~seconds ~trace ~digests =
  Common.ensure_dir "_perf";
  let v = checker () in
  let live = ref [] in
  let spawn () =
    let d = ready v ~kind ~seed in
    live := d :: !live;
    d
  in
  let retire d =
    live := List.filter (fun x -> x != d) !live;
    stop d
  in
  let seconds = float_of_int seconds in
  let warm_up d calib next =
    ops (load v d calib ~kind ~seed ~next ~seconds:warmup_s ~traced:false)
  in
  let body () =
    if not trace then begin
      (* Set-up, several times: fork to a healthy (and, for serve-hot,
         pre-warmed) daemon; the last one serves the load. The host is
         probed only around the load, after the last fork, so that no
         daemon inherits the probe's table. *)
      let calib = Calib.create () in
      let times = Array.make setups 0. in
      let d = ref None in
      for i = 0 to setups - 1 do
        Option.iter retire !d;
        let t0 = now () in
        d := Some (spawn ());
        times.(i) <- now () -. t0
      done;
      let d = Option.get !d in
      let next = Atomic.make 0 in
      let warm = warm_up d calib next in
      let l = load v d calib ~kind ~seed ~next ~seconds ~traced:false in
      let rss = Common.peak_rss_mb d.pid in
      let s = server_stats d in
      retire d;
      let n = ops l in
      let tail = Common.tail_pct in
      (* Host-normalised: a segment's time divided by its own factor, the
         set-up's by the run's. serve-cold's set-up is a fork and the
         Health poll's sleeps, which the host's speed hardly moves:
         dividing it by the factor spread it 16-29 % against 3-5 % raw,
         so it is reported raw. *)
      let end_to_end ~factor ~setup_factor =
        let lat = latencies ~factor l in
        let work = Common.sum (fun s -> s.seg_wall /. factor s) l.segments in
        let per_s count =
          float_of_int (List.fold_left (fun a s -> a + count s) 0 l.segments) /. work
        in
        [
          ("setup_s", Stat.median times /. setup_factor);
          ("sim_minstr_per_s", per_s seg_instrs /. 1e6);
          ("ops_per_s", per_s seg_ops);
          ("op_p50_ms", Stat.percentile lat 50. *. 1e3);
          ("op_tail_ms", Stat.percentile lat tail *. 1e3);
          ("peak_rss_mb", rss);
        ]
      in
      let f = Calib.factor calib in
      let setup_factor = match kind with Hot -> f | Cold -> 1. in
      ( end_to_end ~factor:(fun s -> s.factor) ~setup_factor,
        [
          ("op", Json.String "request, send to final response");
          ("op_samples", Json.Int n);
          ("op_tail_pct", Json.Float tail);
          ("op_beyond_tail", Json.Int (Stat.beyond ~n tail));
          ("op_tail_supported", Common.tail_note n);
          ("served_without_run_frac", Json.Float (served_without_run s));
          ("host_factor", Json.Float f);
          ("raw", Common.values_note (end_to_end ~factor:(fun _ -> 1.) ~setup_factor:1.));
          ("warmup_ops", Json.Int warm);
        ],
        n + warm )
    end
    else begin
      (* Untraced and traced load alternate in quarters on one daemon,
         so drift over the run does not read as tracing overhead. *)
      let d = spawn () in
      let next = Atomic.make 0 in
      let calib = Calib.create () in
      let warm = warm_up d calib next in
      let quarter traced = load v d calib ~kind ~seed ~next ~seconds:(seconds /. 4.) ~traced in
      let both a b = { segments = a.segments @ b.segments; recorders = a.recorders @ b.recorders } in
      let a1 = quarter false in
      let b1 = quarter true in
      let a2 = quarter false in
      let b2 = quarter true in
      let l0 = both a1 a2 and l1 = both b1 b2 in
      let s = server_stats d in
      let extra = daemon_events d in
      retire d;
      let rows =
        Common.write_trace ~path:(Common.trace_path (name kind))
          (Spans.to_chrome ~pid:(Unix.getpid ()) ~extra
             ~threads:
               (List.init (clients kind) (fun i -> (i + 1, Printf.sprintf "client %d" (i + 1))))
             l1.recorders)
      in
      let stages = stage_values s in
      let p50 op =
        let xs = latencies ~op l1 in
        if Array.length xs = 0 then 0. else Stat.median xs *. 1e3
      in
      let rate l = float_of_int (ops l) /. wall l in
      let values =
        List.map fst stages
        @ [
            ("exec.served_without_run_frac", served_without_run s);
            ("client.submit_ms", p50 "submit");
            ("client.batch2_ms", p50 "batch2");
            ("client.query_ms", p50 "query");
            ("client.stats_ms", p50 "stats");
            ("trace_overhead_pct", 100. *. ((rate l0 /. rate l1) -. 1.));
            ("host.probe_factor", Calib.factor calib);
          ]
        @ codec_and_cache v
        @ Common.counts (Hashtbl.fold (fun _ (_, r) acc -> r :: acc) v.runs [])
      in
      ( Common.per_layer values,
        [
          ("stage_counts", Json.Obj (List.map (fun (_, (st, n)) -> (st, Json.Int n)) stages));
          ("untraced_ops_per_s", Json.Float (rate l0));
          ("traced_ops_per_s", Json.Float (rate l1));
          ("trace_file", Json.String (Common.trace_path (name kind)));
          ("self_times", Common.self_time_note rows);
        ],
        warm + ops l0 + ops l1 )
    end
  in
  let metrics, notes, attempted =
    Fun.protect ~finally:(fun () -> List.iter stop !live) body
  in
  let seen = Hashtbl.fold (fun k d acc -> (k, d) :: acc) v.digests [] |> List.sort compare in
  let mismatches, unchecked = Digests.check digests ~seed ~workload:(name kind) seen in
  List.iter (fail v) mismatches;
  {
    Outcome.workload = name kind;
    seed;
    trace;
    attempted = max 1 (max attempted v.failed);
    failed = v.failed;
    problems = List.rev v.problems;
    metrics;
    notes = notes @ [ ("digests_unchecked", Json.Int unchecked) ];
    digests = seen;
  }
