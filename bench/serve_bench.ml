(* Load-test harness for the serve daemon.

   Spins up an in-process server on a throwaway socket, then replays a
   mixed request stream — job submissions drawn from a small spec pool
   (so dedup and the result cache both get exercised), cache queries,
   stats probes — from several concurrent client threads, and reports
   per-request latency percentiles plus the daemon's dedup hit rate.

       dune exec bench/serve_bench.exe

   Environment knobs (all optional):

     REPRO_SERVE_CLIENTS   concurrent clients            (default 8)
     REPRO_SERVE_REQS      requests per client           (default 250)
     REPRO_SERVE_WORKERS   worker domains                (default cores)
     REPRO_SERVE_SCALE     workload scale for real jobs  (default 0.02)
     REPRO_SERVE_FAKE      1 = fake runner (protocol-only measurement)
     REPRO_SERVE_OUT       write the report as JSON here
     REPRO_SERVE_SOCKET    socket path (default: temp file)

   With REPRO_SERVE_FAKE=1 the jobs are served by a stub runner, so the
   numbers measure the daemon itself (framing, scheduling, fan-out) and
   a bounded run finishes in seconds — that is what CI runs. *)

module X = Repro_exec
module O = Repro_obs

let env_int name default =
  match Sys.getenv_opt name with
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> default)
  | None -> default

let env_float name default =
  match Sys.getenv_opt name with
  | Some v -> (
    match float_of_string_opt v with Some f -> f | None -> default)
  | None -> default

let clients = env_int "REPRO_SERVE_CLIENTS" 8
let reqs_per_client = env_int "REPRO_SERVE_REQS" 250
let workers = env_int "REPRO_SERVE_WORKERS" (X.Executor.default_jobs ())
let scale = env_float "REPRO_SERVE_SCALE" 0.02
let fake = Sys.getenv_opt "REPRO_SERVE_FAKE" = Some "1"
let out = Sys.getenv_opt "REPRO_SERVE_OUT"

let socket_path =
  match Sys.getenv_opt "REPRO_SERVE_SOCKET" with
  | Some p when p <> "" -> p
  | _ -> Filename.temp_file "repro_serve_bench" ".sock"

(* A small pool: 2 workloads x 2 techniques x 2 seeds. Thousands of
   requests over 8 distinct jobs means almost every submission is a
   dedup or cache hit — exactly the hot path the daemon exists for. *)
let spec_pool =
  List.concat_map
    (fun workload ->
      List.concat_map
        (fun technique ->
          List.map
            (fun seed ->
              X.Request.Spec.make ~scale ~seed ~workload ~technique ())
            [ 42; 43 ])
        [ "tp"; "shard" ])
    [ "TRAF"; "GOL" ]
  |> Array.of_list

(* Deterministic per-client mixed stream: ~60% single-job submits, 20%
   two-job batches, 10% queries, 10% stats. *)
type op = Submit of X.Request.Spec.t list | Query of X.Request.Spec.t | Stats

let op_of client i =
  let pick k = spec_pool.((client * 7 + i * 13 + k) mod Array.length spec_pool) in
  match (client + i) mod 10 with
  | 0 | 1 | 2 | 3 | 4 | 5 -> Submit [ pick 0 ]
  | 6 | 7 -> Submit [ pick 0; pick 3 ]
  | 8 -> Query (pick 0)
  | _ -> Stats

(* One client thread: replay its stream synchronously (a request's
   latency is submit-to-final-response) and record latencies. *)
let client_thread client_id =
  let c = X.Server.Client.connect socket_path in
  X.Server.Client.set_timeout c 120.;
  let latencies = ref [] in
  let failures = ref 0 in
  for i = 0 to reqs_per_client - 1 do
    let t0 = Unix.gettimeofday () in
    (match op_of client_id i with
     | Submit specs -> (
       let id = Printf.sprintf "c%d-%d" client_id i in
       match X.Server.Client.submit c ~id specs with
       | Ok _ -> ()
       | Error _ -> incr failures)
     | Query spec -> (
       X.Server.Client.send c (X.Request.Query spec);
       match X.Server.Client.recv c with
       | Ok (X.Response.Queried _) -> ()
       | _ -> incr failures)
     | Stats -> (
       X.Server.Client.send c (X.Request.Stats);
       match X.Server.Client.recv c with
       | Ok (X.Response.Server_stats _) -> ()
       | _ -> incr failures));
    latencies := (Unix.gettimeofday () -. t0) :: !latencies
  done;
  X.Server.Client.close c;
  (!latencies, !failures)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

let () =
  let cache_dir = Filename.temp_file "repro_serve_bench" ".cache" in
  Sys.remove cache_dir;
  (try Sys.remove socket_path with Sys_error _ -> ());
  let cfg =
    (* Metrics + tracing on: the bench doubles as the end-to-end check
       that server-side accounting agrees with client-side measurement. *)
    { X.Server.socket_path; workers; cache = true; cache_dir;
      obs = X.Server.obs_default () }
  in
  let runner =
    if fake then (
      (* One real tiny measurement up front; every fake job returns it —
         a cheap runner with a representative result object, so the
         encode/decode cost on the wire stays realistic. *)
      let job =
        match X.Request.Spec.resolve spec_pool.(0) with
        | Ok j -> j
        | Error msg -> failwith msg
      in
      let run = X.Job.run job in
      Some (fun (_ : X.Job.t) -> Ok run))
    else None
  in
  let handle = X.Server.start ?runner cfg in
  Printf.eprintf
    "serve_bench: %d clients x %d reqs, %d workers, %s jobs, pool %d\n%!"
    clients reqs_per_client workers
    (if fake then "fake" else Printf.sprintf "real (scale %g)" scale)
    (Array.length spec_pool);
  let t0 = Unix.gettimeofday () in
  let results = Array.make clients ([], 0) in
  let threads =
    List.init clients
      (fun i -> Thread.create (fun i -> results.(i) <- client_thread i) i)
  in
  List.iter Thread.join threads;
  let results = Array.to_list results in
  let wall = Unix.gettimeofday () -. t0 in
  (* Scheduler counters before shutdown. *)
  let stats =
    let c = X.Server.Client.connect socket_path in
    X.Server.Client.set_timeout c 30.;
    X.Server.Client.send c X.Request.Stats;
    let s =
      match X.Server.Client.recv c with
      | Ok (X.Response.Server_stats s) -> s
      | _ -> failwith "no stats from server"
    in
    X.Server.Client.close c;
    s
  in
  X.Server.stop handle;
  let latencies =
    List.concat_map (fun (ls, _) -> ls) results |> Array.of_list
  in
  Array.sort compare latencies;
  let failures = List.fold_left (fun a (_, f) -> a + f) 0 results in
  let total = Array.length latencies in
  let p50 = percentile latencies 0.50
  and p95 = percentile latencies 0.95
  and p99 = percentile latencies 0.99 in
  let dedup_rate =
    if stats.X.Response.submitted = 0 then 0.
    else
      float_of_int (stats.X.Response.dedup_hits + stats.X.Response.cache_hits)
      /. float_of_int stats.X.Response.submitted
  in
  Printf.printf
    "%d requests in %.2fs (%.0f req/s), %d failed\n\
     latency p50 %.3fms  p95 %.3fms  p99 %.3fms\n\
     submitted %d, executed %d, dedup hits %d, cache hits %d \
     (%.1f%% served without running)\n"
    total wall
    (float_of_int total /. wall)
    failures (p50 *. 1e3) (p95 *. 1e3) (p99 *. 1e3)
    stats.X.Response.submitted stats.X.Response.executed
    stats.X.Response.dedup_hits stats.X.Response.cache_hits
    (100. *. dedup_rate);
  (* Server-side accounting checks. The final stats probe snapshots
     before its own request completes, so the "request" histogram holds
     exactly the client threads' requests. And every server-side
     end-to-end record is contained in the client-measured latency of
     the same request, so each server percentile's lower bound cannot
     exceed the client-side percentile (element-wise domination survives
     sorting). *)
  let req_hist =
    match List.assoc_opt "request" stats.X.Response.stages with
    | Some h -> h
    | None ->
      prerr_endline "serve_bench: server returned no stage histograms";
      exit 1
  in
  if O.Hist.count req_hist <> total then begin
    Printf.eprintf
      "serve_bench: server counted %d requests, clients sent %d\n"
      (O.Hist.count req_hist) total;
    exit 1
  end;
  let server_lo p =
    match O.Hist.quantile req_hist p with Some (lo, _) -> lo | None -> 0.
  in
  List.iter
    (fun (name, p, client_side) ->
      let lo = server_lo p in
      if lo > client_side +. 1e-9 then begin
        Printf.eprintf
          "serve_bench: server-side %s (>= %.3fms) exceeds client-side \
           %.3fms\n"
          name (lo *. 1e3) (client_side *. 1e3);
        exit 1
      end)
    [ ("p50", 0.50, p50); ("p95", 0.95, p95); ("p99", 0.99, p99) ];
  Printf.printf
    "server-side request p50 %.3fms  p95 %.3fms  p99 %.3fms (bucket lower \
     bounds; %d recorded)\n"
    (server_lo 0.50 *. 1e3)
    (server_lo 0.95 *. 1e3)
    (server_lo 0.99 *. 1e3)
    (O.Hist.count req_hist);
  (match out with
   | None -> ()
   | Some path ->
     let json =
       O.Json.Obj
         [
           ("clients", O.Json.Int clients);
           ("requests_per_client", O.Json.Int reqs_per_client);
           ("workers", O.Json.Int workers);
           ("fake_runner", O.Json.Bool fake);
           ("requests", O.Json.Int total);
           ("failures", O.Json.Int failures);
           ("wall_s", O.Json.Float wall);
           ("req_per_s", O.Json.Float (float_of_int total /. wall));
           ("latency_p50_ms", O.Json.Float (p50 *. 1e3));
           ("latency_p95_ms", O.Json.Float (p95 *. 1e3));
           ("latency_p99_ms", O.Json.Float (p99 *. 1e3));
           ("submitted", O.Json.Int stats.X.Response.submitted);
           ("executed", O.Json.Int stats.X.Response.executed);
           ("dedup_hits", O.Json.Int stats.X.Response.dedup_hits);
           ("cache_hits", O.Json.Int stats.X.Response.cache_hits);
           ("dedup_rate", O.Json.Float dedup_rate);
           ( "server_p50_ms",
             O.Json.Float (server_lo 0.50 *. 1e3) );
           ( "server_p95_ms",
             O.Json.Float (server_lo 0.95 *. 1e3) );
           ( "server_p99_ms",
             O.Json.Float (server_lo 0.99 *. 1e3) );
           ( "server_stages",
             O.Json.Obj
               (List.map
                  (fun (name, h) -> (name, O.Hist.to_json h))
                  stats.X.Response.stages) );
         ]
     in
     O.Sink.write_file ~path (O.Json.to_string ~pretty:true json);
     Printf.eprintf "wrote %s\n%!" path);
  (* Leave no temp state behind. *)
  ignore (X.Cache.clear ~dir:cache_dir);
  (try Sys.remove cache_dir with Sys_error _ -> ());
  if failures > 0 then exit 1
