(* The serve protocol and daemon: request/response round-trips (every
   constructor, property-tested specs), decode errors that name the
   offending field, bit-exact results across the wire, and the
   scheduler's three invariants — dedup/stampede protection, disconnect
   cancellation, fair queueing. *)

module W = Repro_workloads
module T = Repro_core.Technique
module X = Repro_exec
module O = Repro_obs
module J = Repro_obs.Json

let check = Alcotest.check

(* One real (tiny) measurement shared by the wire-fidelity tests. *)
let tiny_run =
  lazy
    (let job =
       match
         X.Request.Spec.resolve
           (X.Request.Spec.make ~scale:0.02 ~workload:"TRAF" ~technique:"tp" ())
       with
       | Ok j -> j
       | Error msg -> failwith msg
     in
     X.Job.run job)

let with_temp_dir f =
  let dir = Filename.temp_file "repro_serve_test" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      ignore (X.Cache.clear ~dir);
      try Sys.remove dir with Sys_error _ -> ())
    (fun () -> f dir)

let temp_socket () =
  let path = Filename.temp_file "repro_serve_test" ".sock" in
  Sys.remove path;
  path

(* --- technique codec ------------------------------------------------------ *)

let all_techniques =
  [
    T.Cuda; T.Concord; T.Shared_oa; T.Coal;
    T.Type_pointer { mode = T.Prototype; on_cuda_alloc = false };
    T.Type_pointer { mode = T.Prototype; on_cuda_alloc = true };
    T.Type_pointer { mode = T.Hw_mmu; on_cuda_alloc = false };
    T.Type_pointer { mode = T.Hw_mmu; on_cuda_alloc = true };
  ]

let test_technique_codec_total () =
  List.iter
    (fun t ->
      let name = X.Request.technique_to_string t in
      match X.Request.technique_of_string name with
      | Ok t' ->
        check Alcotest.bool (name ^ " round-trips") true (t = t')
      | Error msg -> Alcotest.failf "%s does not decode: %s" name msg)
    all_techniques;
  check Alcotest.bool "unknown technique rejected" true
    (Result.is_error (X.Request.technique_of_string "vtable"))

(* --- spec round-trip (property) ------------------------------------------- *)

let spec_gen =
  let open QCheck.Gen in
  let* workload =
    oneofl [ "TRAF"; "GOL"; "Dynasoar/GEN"; "RAY"; "nonsense" ]
  in
  let* technique = oneofl X.Request.technique_names in
  let* alloc = opt (oneofl Repro_core.Alloc_family.all_names) in
  let* scale = float_range 0.01 2.0 in
  let* seed = int_range 0 1000 in
  let* iterations = opt (int_range 1 5) in
  let* chunk_objs = opt (int_range 16 256) in
  return
    (X.Request.Spec.make ?alloc ?iterations ?chunk_objs ~scale ~seed ~workload
       ~technique ())

let spec_roundtrip =
  QCheck.Test.make ~count:200 ~name:"spec JSON round-trip"
    (QCheck.make spec_gen)
    (fun spec ->
      match J.of_string (J.to_string (X.Request.Spec.to_json spec)) with
      | Error _ -> false
      | Ok j -> (
        match J.Decode.run X.Request.Spec.decoder j with
        | Ok spec' -> X.Request.Spec.equal spec spec'
        | Error _ -> false))

(* --- request round-trip --------------------------------------------------- *)

let sample_specs =
  [
    X.Request.Spec.make ~workload:"TRAF" ~technique:"tp" ();
    X.Request.Spec.make ~scale:0.5 ~seed:7 ~iterations:2 ~chunk_objs:64
      ~workload:"GOL" ~technique:"tp/cuda" ();
    X.Request.Spec.make ~alloc:"dyna" ~workload:"GOL" ~technique:"cuda" ();
  ]

let sample_requests =
  [
    X.Request.Submit { id = "b-1"; cache = true; specs = sample_specs };
    X.Request.Submit { id = ""; cache = false; specs = [] };
    X.Request.Query (List.hd sample_specs);
    X.Request.Invalidate (Some (List.nth sample_specs 1));
    X.Request.Invalidate None;
    X.Request.Stats;
    X.Request.Health;
    X.Request.Trace_dump;
    X.Request.Ping;
    X.Request.Shutdown;
  ]

let test_request_roundtrip () =
  List.iter
    (fun req ->
      let line = X.Request.to_line req in
      check Alcotest.bool "one line" false (String.contains line '\n');
      match X.Request.of_line line with
      | Ok req' ->
        check Alcotest.string "re-encodes identically" line
          (X.Request.to_line req')
      | Error msg -> Alcotest.failf "%s does not decode: %s" line msg)
    sample_requests

(* --- response round-trip --------------------------------------------------- *)

let sample_outcome ~cached ~deduped result =
  {
    X.Response.spec = List.hd sample_specs;
    cached;
    deduped;
    wall_s = 0.25;
    result;
  }

(* A non-trivial service snapshot + stage histograms for the stats
   round-trip: distinct values in every field class (plain counter,
   float counter, gauges, a populated histogram). *)
let sample_svc () =
  let module S = O.Svc_metrics in
  let m = S.create () in
  List.iter
    (fun (metric, n) -> S.add m metric n)
    [ (S.jobs_submitted, 10); (S.jobs_executed, 3); (S.dedup_hits, 4);
      (S.cache_hits, 3); (S.cache_misses, 2); (S.stampede_avoided, 1);
      (S.requests, 12); (S.slow_requests, 1); (S.responses, 20);
      (S.decode_errors, 2); (S.bytes_in, 4096); (S.bytes_out, 16384) ];
  S.add_float m S.worker_busy_s 1.75;
  List.iter
    (fun (gauge, n) -> S.set m gauge n)
    [ (S.sessions, 2); (S.queue_depth, 1); (S.inflight, 3);
      (S.jobs_running, 2) ];
  O.Hist.record (S.stage m "request") 0.004;
  O.Hist.record (S.stage m "request") 0.250;
  O.Hist.record (S.stage m "run") 0.051;
  let svc = S.snapshot m in
  let stages =
    List.map
      (fun n -> (n, O.Hist.copy (O.Svc_metrics.stage m n)))
      O.Svc_metrics.stage_names
  in
  (svc, stages)

let sample_trace () =
  let module S = O.Svc_metrics in
  let module R = Repro_util.Event_ring in
  let ring = R.create ~capacity:8 in
  R.record ring ~kind:(S.stage_index S.Decode) ~track:0 ~a:1 ~b:0 ~ts:0.001
    ~dur:0.0002;
  R.record ring ~kind:(S.stage_index S.Run) ~track:1 ~a:1 ~b:0 ~ts:0.002
    ~dur:0.05;
  O.Tracer.chrome
    ~tracks:[ (0, "events"); (1, "worker 1") ]
    ~describe:(fun (e : R.event) ->
      (S.stage_name e.kind, e.track, [ ("trace", J.Int e.arg_a) ]))
    ~scale:1e6 ~meta:[ ("displayTimeUnit", J.String "ms") ]
    (R.events ring)

let sample_responses () =
  let run = Lazy.force tiny_run in
  let svc, stages = sample_svc () in
  [
    X.Response.Ack { id = "b-1"; jobs = 3 };
    X.Response.Running { id = "b-1"; index = 2 };
    X.Response.Job_done
      { id = "b-1"; index = 0; outcome = sample_outcome ~cached:false ~deduped:false (Ok run) };
    X.Response.Job_done
      { id = "b-1"; index = 1;
        outcome = sample_outcome ~cached:true ~deduped:false (Error "boom") };
    X.Response.Job_done
      { id = "b-1"; index = 2; outcome = sample_outcome ~cached:false ~deduped:true (Ok run) };
    X.Response.Batch_done
      { id = "b-1"; jobs = 3; measured = 1; cached = 1; deduped = 1;
        failed = 1; wall_s = 0.5 };
    X.Response.Queried { hit = true; run = Some run };
    X.Response.Queried { hit = false; run = None };
    X.Response.Invalidated { removed = 55 };
    X.Response.Server_stats
      { sessions = 2; submitted = 10; executed = 3; dedup_hits = 4;
        cache_hits = 3; queued = 1; running = 2; uptime_s = 12.5;
        svc = None; stages = [] };
    X.Response.Server_stats
      { sessions = 2; submitted = 10; executed = 3; dedup_hits = 4;
        cache_hits = 3; queued = 1; running = 2; uptime_s = 12.5;
        svc = Some svc; stages };
    X.Response.Health
      { h_uptime_s = 3.5; h_schema = 2; h_workers = 4; h_sessions = 1;
        h_queued = 0; h_running = 2 };
    X.Response.Trace_dump { spans = 2; dropped = 0; trace = sample_trace () };
    X.Response.Pong;
    X.Response.Bye;
    X.Response.Error { message = "jobs[2].scale: expected a number" };
  ]

let test_response_roundtrip () =
  List.iter
    (fun resp ->
      let line = X.Response.to_line resp in
      check Alcotest.bool "one line" false (String.contains line '\n');
      match X.Response.of_line line with
      | Ok resp' ->
        check Alcotest.string "re-encodes identically" line
          (X.Response.to_line resp')
      | Error msg -> Alcotest.failf "%s does not decode: %s" line msg)
    (sample_responses ())

let test_run_wire_fidelity () =
  let run = Lazy.force tiny_run in
  let text = J.to_string (X.Run_wire.run_to_json run) in
  match J.of_string text with
  | Error msg -> Alcotest.failf "run JSON does not parse: %s" msg
  | Ok j -> (
    match J.Decode.run X.Run_wire.run_decoder j with
    | Error msg -> Alcotest.failf "run does not decode: %s" msg
    | Ok run' ->
      check Alcotest.string "byte-identical re-encoding" text
        (J.to_string (X.Run_wire.run_to_json run'));
      check Alcotest.bool "cycles survive exactly" true
        (run.W.Harness.cycles = run'.W.Harness.cycles);
      check Alcotest.bool "checksum survives exactly" true
        (run.W.Harness.checksum = run'.W.Harness.checksum);
      check Alcotest.bool "stats survive exactly" true
        (Repro_gpu.Stats.to_raw run.W.Harness.stats
         = Repro_gpu.Stats.to_raw run'.W.Harness.stats))

(* --- decode errors name the field ----------------------------------------- *)

let decode_error line =
  match X.Request.of_line line with
  | Ok _ -> Alcotest.fail "expected a decode error"
  | Error msg -> msg

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* --- golden wire fixture -------------------------------------------------- *)

(* A [run] object for TRAF under CUDA with coalesce paging at scale
   0.01, written by the hand-written stats encoder that the counter
   table replaced. Its TLB, stall and per-label load counters are all
   non-zero, so every part of the stats form is exercised. *)
let fixture_text =
  lazy
    (In_channel.with_open_bin "fixtures/run_traf_cuda_coalesce.json"
       In_channel.input_all)

(* A committed run line as today's writer prints it: [kernel_stats], the
   last key of every fixture, cut off with a plain string search, so the
   codec under test takes no part in the cut. *)
let without_kernel_stats text =
  let key = {|,"kernel_stats":[|} in
  let n = String.length key and m = String.length text in
  let rec find i =
    if i + n > m then Alcotest.fail "fixture has no kernel_stats key"
    else if String.sub text i n = key then i
    else find (i + 1)
  in
  let at = find 0 in
  if not (String.ends_with ~suffix:"]}" text) then
    Alcotest.fail "kernel_stats is not the fixture's last key";
  String.sub text 0 at ^ "}"

let fixture () =
  match J.of_string (Lazy.force fixture_text) with
  | Ok j -> j
  | Error msg -> Alcotest.failf "fixture does not parse: %s" msg

let fixture_stats j =
  match J.member "stats" j with
  | Some (J.Obj kvs) -> kvs
  | _ -> Alcotest.fail "fixture has no stats object"

(* The fixture with its top-level [stats] object rewritten by [f]. *)
let edit_stats f = function
  | J.Obj kvs ->
    J.Obj
      (List.map
         (fun (k, v) ->
           match v with
           | J.Obj s when k = "stats" -> (k, J.Obj (f s))
           | _ -> (k, v))
         kvs)
  | j -> j

let decode_run j =
  match J.Decode.run X.Run_wire.run_decoder j with
  | Ok run -> run
  | Error msg -> Alcotest.failf "run does not decode: %s" msg

let stats_keys =
  [ "cycles"; "mem_instrs"; "compute_instrs"; "ctrl_instrs";
    "load_transactions"; "store_transactions"; "l1_hits"; "l1_misses";
    "l2_hits"; "l2_misses"; "dram_sectors"; "trace_dropped"; "tlb_l1_hits";
    "tlb_l2_hits"; "tlb_walks"; "tlb_walk_cycles"; "stalls";
    "load_transactions_by_label"; "san_violations" ]

let test_fixture_roundtrip () =
  let run = decode_run (fixture ()) in
  check Alcotest.string "re-encodes to the fixture's bytes, less kernel_stats"
    (without_kernel_stats (Lazy.force fixture_text))
    (J.to_string (X.Run_wire.run_to_json run))

let test_fixture_stats_keys () =
  check (Alcotest.list Alcotest.string) "fixture stats keys" stats_keys
    (List.map fst (fixture_stats (fixture ())));
  let module S = Repro_gpu.Stats in
  match J.of_counters S.table (S.create () :> float array) with
  | J.Obj kvs ->
    check (Alcotest.list Alcotest.string) "encoder stats keys" stats_keys
      (List.map fst kvs)
  | _ -> Alcotest.fail "stats do not encode as an object"

let test_fixture_pre_translation_peer () =
  let module S = Repro_gpu.Stats in
  let full = (decode_run (fixture ())).W.Harness.stats in
  check Alcotest.bool "fixture walks pages" true (S.tlb_walks full > 0);
  let old =
    (decode_run
       (edit_stats
          (List.filter (fun (k, _) -> not (String.starts_with ~prefix:"tlb_" k)))
          (fixture ())))
      .W.Harness.stats
  in
  check Alcotest.int "tlb_l1_hits" 0 (S.tlb_l1_hits old);
  check Alcotest.int "tlb_l2_hits" 0 (S.tlb_l2_hits old);
  check Alcotest.int "tlb_walks" 0 (S.tlb_walks old);
  check (Alcotest.float 0.) "tlb_walk_cycles" 0. (S.tlb_walk_cycles old);
  check Alcotest.int "other counters intact" (S.l1_hits full) (S.l1_hits old)

(* What the stats decoder answers for malformed and edge-case stats
   objects, recorded before it read a stats object through the counter
   table's key index: the message of each error, or, for what decodes,
   the value the counter took. Duplicate keys keep the first; duplicate
   slugs within a family keep the last; the first fault in declaration
   order is the one reported. *)
let stats_decode_cases =
  let set k v s = List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) s in
  let label_loads v = set "load_transactions_by_label" v in
  let l1 = Ok ("l1_hits", 10072) and body n = Ok ("body", n) in
  [
    ("missing strict key", List.remove_assoc "l1_hits",
     Error "stats.l1_hits: missing required field");
    ("float in an int slot", set "l1_hits" (J.Float 1.5),
     Error "stats.l1_hits: expected an int, got float");
    (* A slug outside a family is the one way the wire can miss the
       family's index space. *)
    ("unknown stalls slug", set "stalls" (J.Obj [ ("no_such_slug", J.Float 1.) ]),
     Error "stats.stalls: unknown slug \"no_such_slug\"");
    ("unknown load slug", label_loads (J.Obj [ ("no_such_slug", J.Int 1) ]),
     Error "stats.load_transactions_by_label: unknown slug \"no_such_slug\"");
    ("unknown violation slug", set "san_violations" (J.Obj [ ("no_such_slug", J.Int 1) ]),
     Error "stats.san_violations: unknown slug \"no_such_slug\"");
    ("duplicate key, first bad", (fun s -> ("l1_hits", J.String "x") :: s),
     Error "stats.l1_hits: expected an int, got string");
    ("duplicate key, second bad", (fun s -> s @ [ ("l1_hits", J.String "x") ]), l1);
    ("duplicate family, first bad", (fun s -> ("stalls", J.List []) :: s),
     Error "stats.stalls: expected an object, got list");
    ("duplicate family, second bad", (fun s -> s @ [ ("stalls", J.List []) ]), l1);
    ("duplicate slug", label_loads (J.Obj [ ("body", J.Int 1); ("body", J.Int 2) ]),
     body 2);
    ("duplicate slug, first bad",
     label_loads (J.Obj [ ("body", J.Float 1.5); ("body", J.Int 2) ]),
     Error "stats.load_transactions_by_label.body: expected an int, got float");
    ("duplicate slug, second bad",
     label_loads (J.Obj [ ("body", J.Int 1); ("body", J.Float 2.5) ]),
     Error "stats.load_transactions_by_label.body: expected an int, got float");
    ("non-object family", label_loads (J.List [ J.Int 1; J.Int 2 ]),
     Error "stats.load_transactions_by_label: expected an object, got list");
    ("null family", label_loads J.Null, body 0);
    ("null strict key", set "cycles" J.Null,
     Error "stats.cycles: expected a number, got null");
    ("null lenient key", set "tlb_walks" J.Null, Ok ("tlb_walks", 0));
    ("missing lenient key", List.remove_assoc "tlb_walks", Ok ("tlb_walks", 0));
    ("two faults, reported in declaration order",
     (fun s -> List.rev (set "l1_hits" (J.Float 1.5) (set "mem_instrs" (J.String "x") s))),
     Error "stats.mem_instrs: expected an int, got string");
    ("unknown top-level key", (fun s -> ("no_such_key", J.List []) :: s), l1);
    ("string in a float slot", set "tlb_walk_cycles" (J.String "x"),
     Error "stats.tlb_walk_cycles: expected a number, got string");
  ]

let test_fixture_rejects_bad_stats () =
  let module S = Repro_gpu.Stats in
  let counter (stats : S.t) = function
    | "l1_hits" -> S.l1_hits stats
    | "tlb_walks" -> S.tlb_walks stats
    | "body" ->
      let e =
        S.Counter.load_transactions_by_label.Repro_util.Counter_table.members.(
          Repro_gpu.Label.(to_index Body))
      in
      int_of_float (stats :> float array).(e.slot)
    | k -> Alcotest.failf "no reader for %s" k
  in
  List.iter
    (fun (what, edit, want) ->
      let got =
        match J.Decode.run X.Run_wire.run_decoder (edit_stats edit (fixture ())) with
        | Error msg -> Error msg
        | Ok run ->
          let key = match want with Ok (k, _) -> k | Error _ -> "l1_hits" in
          Ok (key, counter run.W.Harness.stats key)
      in
      check
        Alcotest.(result (pair string int) string)
        what want got)
    stats_decode_cases;
  match
    J.Decode.run X.Run_wire.run_decoder
      (match fixture () with
       | J.Obj kvs ->
         J.Obj (List.map (fun (k, v) -> if k = "stats" then (k, J.List []) else (k, v)) kvs)
       | j -> j)
  with
  | Error msg ->
    check Alcotest.string "stats as a list" "stats: expected an object, got list" msg
  | Ok _ -> Alcotest.fail "a list decoded as stats"

(* --- wire text: bit-exact runs, spliced lines, the cache entry ---------- *)

let resolve spec =
  match X.Request.Spec.resolve spec with
  | Ok job -> job
  | Error msg -> Alcotest.fail msg

(* Field by field, floats by their bits. The record pattern names every
   field, so a new [Harness.run] field fails to compile here until the
   wire form (and this check) carries it. *)
let check_run_bits what (a : W.Harness.run) (b : W.Harness.run) =
  let {
    W.Harness.workload; technique; alloc; cycles; stats; kernel_stats = _;
    window; kernel_windows; trace; checksum; result; n_objects; n_types;
    n_vfuncs; vfunc_pki; warp_vcalls; alloc_stats;
  } =
    a
  in
  let field name ok = check Alcotest.bool (what ^ ": " ^ name) true ok in
  let bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  let stats_bits (x : Repro_gpu.Stats.t) (y : Repro_gpu.Stats.t) =
    let x = (x :> float array) and y = (y :> float array) in
    Array.length x = Array.length y && Array.for_all2 bits x y
  in
  field "workload" (String.equal workload b.W.Harness.workload);
  field "technique" (technique = b.W.Harness.technique);
  field "alloc" (alloc = b.W.Harness.alloc);
  field "cycles" (bits cycles b.W.Harness.cycles);
  field "stats" (stats_bits stats b.W.Harness.stats);
  (* Not carried: only an in-process run has per-launch deltas. *)
  field "kernel_stats" (b.W.Harness.kernel_stats = []);
  field "window" (window = None && b.W.Harness.window = None);
  field "kernel_windows" (kernel_windows = [] && b.W.Harness.kernel_windows = []);
  field "trace" (trace = None && b.W.Harness.trace = None);
  field "checksum" (checksum = b.W.Harness.checksum);
  field "result" (result = b.W.Harness.result);
  field "n_objects" (n_objects = b.W.Harness.n_objects);
  field "n_types" (n_types = b.W.Harness.n_types);
  field "n_vfuncs" (n_vfuncs = b.W.Harness.n_vfuncs);
  field "vfunc_pki" (bits vfunc_pki b.W.Harness.vfunc_pki);
  field "warp_vcalls" (warp_vcalls = b.W.Harness.warp_vcalls);
  let {
    Repro_core.Allocator.objects; live_objects; reserved_bytes; used_bytes;
    padded_bytes; alloc_cycles; free_cycles; bitmap_scan_cycles;
  } =
    alloc_stats
  in
  let b = b.W.Harness.alloc_stats in
  field "alloc_stats"
    (objects = b.Repro_core.Allocator.objects
    && live_objects = b.Repro_core.Allocator.live_objects
    && reserved_bytes = b.Repro_core.Allocator.reserved_bytes
    && used_bytes = b.Repro_core.Allocator.used_bytes
    && padded_bytes = b.Repro_core.Allocator.padded_bytes
    && bits alloc_cycles b.Repro_core.Allocator.alloc_cycles
    && bits free_cycles b.Repro_core.Allocator.free_cycles
    && bits bitmap_scan_cycles b.Repro_core.Allocator.bitmap_scan_cycles)

(* Cacheable runs across the wire form's variety: the five paper
   techniques, the DynaSOAr allocator, TypePointer on the CUDA allocator,
   coalesce paging and an iteration override. *)
let sampled_specs =
  let mk ?alloc ?iterations ?pages technique =
    X.Request.Spec.make ?alloc ?iterations ?pages ~scale:0.02 ~workload:"TRAF"
      ~technique ()
  in
  [
    mk "cuda"; mk "con"; mk "shard"; mk "coal"; mk "tp";
    mk ~alloc:"dyna" "cuda"; mk "tp/cuda"; mk ~pages:"coalesce" "cuda";
    mk ~iterations:1 "tp";
  ]

let test_sampled_runs_splice_exactly () =
  with_temp_dir (fun dir ->
      List.iteri
        (fun i spec ->
          let job = resolve spec in
          let what = X.Job.label job in
          check Alcotest.bool (what ^ " is cacheable") true (X.Job.cacheable job);
          let run = X.Job.run job in
          let text = X.Run_wire.encode run in
          (match X.Run_wire.decode text with
           | Ok run' -> check_run_bits what run run'
           | Error msg -> Alcotest.failf "%s does not decode: %s" what msg);
          (* The daemon splices what the cache hands back. *)
          X.Cache.store ~dir job run;
          check (Alcotest.option Alcotest.string) (what ^ ": stored text")
            (Some text) (X.Cache.lookup_text ~dir job);
          List.iter
            (fun (cached, deduped, wall_s) ->
              let outcome result =
                { X.Response.spec; cached; deduped; wall_s; result }
              in
              check Alcotest.string (what ^ ": job_done line")
                (X.Response.to_line
                   (X.Response.Job_done
                      { id = "b"; index = i; outcome = outcome (Ok run) }))
                (X.Response.job_done_line ~id:"b" ~index:i
                   (outcome (Ok text))))
            [ (true, false, 0.); (false, true, 0.125); (false, false, 1.5e-3) ];
          check Alcotest.string (what ^ ": queried line")
            (X.Response.to_line (X.Response.Queried { hit = true; run = Some run }))
            (X.Response.queried_line (Some text)))
        sampled_specs;
      (* Both forms of a failed outcome, from one polymorphic record. *)
      let failed =
        { X.Response.spec = List.hd sampled_specs; cached = false;
          deduped = false; wall_s = 0.5; result = Error "boom" }
      in
      check Alcotest.string "failed job_done line"
        (X.Response.to_line
           (X.Response.Job_done { id = "b"; index = 0; outcome = failed }))
        (X.Response.job_done_line ~id:"b" ~index:0 failed);
      check Alcotest.string "query miss line"
        (X.Response.to_line (X.Response.Queried { hit = false; run = None }))
        (X.Response.queried_line None))

(* The cache entry format, pinned: a store of the golden fixture's run
   writes exactly this header, the job key and the fixture's bytes less
   [kernel_stats]. A change to the header, the key or the run's wire
   form fails here; bump [Job.schema_version] with it, so entries
   written before read as misses, then re-record the header. *)
let golden_entry_header =
  "repro-cache repro-exec-v9 961 3e06ca1c34c83fffacf6d91386a51de7\n\
   Dynasoar/TRAF|cuda|alloc=default|scale=0.01|seed=42|iters=default|\
   chunk=default|config=default|san=off|telemetry=off|pages=coalesce\n"

let test_cache_entry_golden () =
  with_temp_dir (fun dir ->
      let job =
        resolve
          (X.Request.Spec.make ~scale:0.01 ~pages:"coalesce" ~workload:"TRAF"
             ~technique:"cuda" ())
      in
      let payload = without_kernel_stats (Lazy.force fixture_text) in
      X.Cache.store ~dir job (decode_run (fixture ()));
      let entry =
        In_channel.with_open_bin
          (Filename.concat dir (X.Job.hash job ^ ".job"))
          In_channel.input_all
      in
      check Alcotest.string
        "cache entry format changed: bump Job.schema_version, then \
         re-record this header"
        (golden_entry_header ^ payload) entry;
      check (Alcotest.option Alcotest.string) "golden entry reads back"
        (Some payload) (X.Cache.lookup_text ~dir job))

let test_decode_errors_name_field () =
  let err =
    decode_error
      {|{"v":2,"type":"submit","id":"b","jobs":[{"workload":"GOL","technique":"tp"},{"workload":"GOL","technique":"tp","scale":"big"}]}|}
  in
  check Alcotest.bool ("path in: " ^ err) true (contains ~sub:"jobs[1].scale" err);
  let err = decode_error {|{"v":2,"type":"submit","jobs":[]}|} in
  check Alcotest.bool ("missing id in: " ^ err) true (contains ~sub:"id" err);
  let err =
    decode_error
      {|{"v":2,"type":"submit","id":"b","jobs":[{"workload":"GOL","technique":"tp","alloc":"slab"}]}|}
  in
  check Alcotest.bool ("alloc path in: " ^ err) true
    (contains ~sub:"jobs[0].alloc" err);
  check Alcotest.bool ("alloc families listed in: " ^ err) true
    (contains ~sub:"expected one of cuda, shared-oa, dyna" err);
  (* [intra: true] asked for the removed sliced-L2 model; answering it
     with the shared-L2 result would hand back another model's numbers. *)
  let err =
    decode_error
      {|{"v":2,"type":"submit","id":"b","jobs":[{"workload":"GOL","technique":"tp","intra":true}]}|}
  in
  check Alcotest.bool ("intra path in: " ^ err) true
    (contains ~sub:"jobs[0].intra: the sliced intra-launch model was removed"
       err);
  let err = decode_error {|{"v":2,"type":"query","job":{"technique":"tp"}}|} in
  check Alcotest.bool ("path in: " ^ err) true
    (contains ~sub:"job.workload" err);
  let err = decode_error {|{"v":2}|} in
  check Alcotest.bool ("missing type in: " ^ err) true (contains ~sub:"type" err);
  let err = decode_error "{" in
  check Alcotest.bool ("malformed in: " ^ err) true
    (contains ~sub:"malformed JSON" err)

let test_schema_version_checked () =
  let err = decode_error {|{"v":1,"type":"ping"}|} in
  check Alcotest.bool ("version in: " ^ err) true
    (contains ~sub:"unsupported schema version 1" err);
  let err = decode_error {|{"type":"ping"}|} in
  check Alcotest.bool ("missing v in: " ^ err) true (contains ~sub:"v" err);
  match X.Response.of_line {|{"v":9,"type":"pong"}|} with
  | Ok _ -> Alcotest.fail "response with wrong version decoded"
  | Error msg ->
    check Alcotest.bool ("version in: " ^ msg) true
      (contains ~sub:"unsupported schema version 9" msg)

(* Fields of removed features that changed no result ([intern], the
   [prealloc_mb] heap hint, and [intra] off) decode like any unknown
   field: ignored, leaving the same spec (and so the same job key) as
   omitting them. *)
let test_removed_intern_field_ignored () =
  let decode line =
    match X.Request.of_line line with
    | Ok (X.Request.Query spec) -> spec
    | Ok _ -> Alcotest.fail "expected a query"
    | Error msg -> Alcotest.failf "%s does not decode: %s" line msg
  in
  let plain = decode {|{"v":2,"type":"query","job":{"workload":"GOL","technique":"tp"}}|} in
  List.iter
    (fun field ->
      let line =
        Printf.sprintf
          {|{"v":2,"type":"query","job":{"workload":"GOL","technique":"tp",%s}}|}
          field
      in
      check Alcotest.bool (field ^ " ignored") true
        (X.Request.Spec.equal plain (decode line)))
    [ {|"intern":false|}; {|"intern":true|}; {|"intra":false|};
      {|"prealloc_mb":64|} ]

(* --- golden cells: wire bytes recorded before the fast codec ------------ *)

(* [Run_wire.encode] of four scale-0.02 cells, written by the writer that
   printed every float through [Printf] and read back by the reader that
   read every number through [String.sub]: their bytes pin both. They
   still carry the per-launch [kernel_stats] list that today's wire form
   drops, so each must decode (the key is skipped) and re-encode to its
   own bytes less that key. *)
let golden_cells =
  [
    ("run_traf_cuda.json", None, "TRAF", "cuda");
    ("run_gol_con.json", None, "GOL", "concord");
    ("run_ray_tp.json", None, "RAY", "tp");
    ("run_gen_dyna.json", Some "dyna", "GEN", "cuda");
  ]

let test_golden_cells () =
  let raw (stats : Repro_gpu.Stats.t) =
    Marshal.to_string (Repro_gpu.Stats.to_raw stats) []
  in
  List.iter
    (fun (file, alloc, workload, technique) ->
      let text =
        In_channel.with_open_bin (Filename.concat "fixtures" file) In_channel.input_all
      in
      let decoded =
        match X.Run_wire.decode text with
        | Ok run -> run
        | Error msg -> Alcotest.failf "%s does not decode: %s" file msg
      in
      check Alcotest.string (file ^ ": decode then encode")
        (without_kernel_stats text) (X.Run_wire.encode decoded);
      let run =
        X.Job.run
          (resolve (X.Request.Spec.make ?alloc ~scale:0.02 ~workload ~technique ()))
      in
      check Alcotest.string (file ^ ": Stats.to_raw of the decoded run")
        (raw run.W.Harness.stats) (raw decoded.W.Harness.stats);
      check_run_bits file run decoded)
    golden_cells

(* --- spec resolution ------------------------------------------------------- *)

let test_spec_resolution () =
  let spec = X.Request.Spec.make ~workload:"TRAF" ~technique:"tp" () in
  (match X.Request.Spec.resolve spec with
   | Ok job ->
     let back = X.Request.Spec.of_job job in
     (match X.Request.Spec.resolve back with
      | Ok job' ->
        check Alcotest.string "of_job resolves to the same key"
          (X.Job.key job) (X.Job.key job')
      | Error msg -> Alcotest.fail msg)
   | Error msg -> Alcotest.fail msg);
  (match
     X.Request.Spec.resolve
       (X.Request.Spec.make ~workload:"NOPE" ~technique:"tp" ())
   with
   | Ok _ -> Alcotest.fail "unknown workload resolved"
   | Error msg ->
     check Alcotest.bool ("names workload: " ^ msg) true
       (contains ~sub:{|unknown workload "NOPE"|} msg));
  match
    X.Request.Spec.resolve
      (X.Request.Spec.make ~workload:"TRAF" ~technique:"vtable" ())
  with
  | Ok _ -> Alcotest.fail "unknown technique resolved"
  | Error msg ->
    check Alcotest.bool ("names technique: " ^ msg) true
      (contains ~sub:{|unknown technique "vtable"|} msg)

(* --- daemon integration ---------------------------------------------------- *)

(* A controllable runner: counts executions per job key, optionally
   sleeping so the test can race clients against an in-flight job. *)
let counting_runner ?(delay = 0.) () =
  let lock = Mutex.create () in
  let executed = ref [] in
  let run = Lazy.force tiny_run in
  let runner (job : X.Job.t) =
    Mutex.lock lock;
    executed := X.Job.key job :: !executed;
    Mutex.unlock lock;
    if delay > 0. then Thread.delay delay;
    Ok run
  in
  let order () =
    Mutex.lock lock;
    let l = List.rev !executed in
    Mutex.unlock lock;
    l
  in
  (runner, order)

(* A daemon on a fresh cache directory, which already holds an entry for
   each spec of [warm]. *)
let with_server ?runner ?(workers = 1) ?(cache = false)
    ?(obs = X.Server.obs_off) ?(warm = []) f =
  with_temp_dir (fun cache_dir ->
      List.iter
        (fun spec ->
          X.Cache.store ~dir:cache_dir (resolve spec) (Lazy.force tiny_run))
        warm;
      let cfg =
        { X.Server.socket_path = temp_socket (); workers; cache; cache_dir;
          obs }
      in
      let handle = X.Server.start ?runner cfg in
      Fun.protect
        ~finally:(fun () -> X.Server.stop handle)
        (fun () -> f cfg.X.Server.socket_path))

let client socket =
  let c = X.Server.Client.connect socket in
  X.Server.Client.set_timeout c 30.;
  c

let submit c ~id specs =
  X.Server.Client.send c (X.Request.Submit { id; cache = true; specs })

(* [Client.submit]'s outcomes, or the test's failure. *)
let outcomes_of id = function
  | Ok (outcomes, _) -> outcomes
  | Error msg -> Alcotest.failf "batch %s: %s" id msg

let submit_wait c ~id specs = outcomes_of id (X.Server.Client.submit c ~id specs)

(* [Client.submit] on its own thread, for clients that must be in flight
   together; the returned thunk joins it. *)
let submit_async c ~id specs =
  let answer = ref (Error "no answer") in
  let th =
    Thread.create (fun () -> answer := X.Server.Client.submit c ~id specs) ()
  in
  fun () ->
    Thread.join th;
    outcomes_of id !answer

let spec_traf = X.Request.Spec.make ~scale:0.02 ~workload:"TRAF" ~technique:"tp" ()
let spec_n seed =
  X.Request.Spec.make ~scale:0.02 ~seed ~workload:"TRAF" ~technique:"tp" ()

let server_stats socket =
  let c = client socket in
  X.Server.Client.send c X.Request.Stats;
  let s =
    match X.Server.Client.recv c with
    | Ok (X.Response.Server_stats s) -> s
    | Ok _ | Error _ -> Alcotest.fail "no stats"
  in
  X.Server.Client.close c;
  s

(* A daemon that accepts each connection and closes it at once: the
   write of the next request fails (EPIPE), and [Client.call] must report
   that as a lost connection, not raise. *)
let test_call_on_dropped_connection () =
  let path = temp_socket () in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 4;
  Fun.protect
    ~finally:(fun () ->
      Unix.close listener;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      List.iter
        (fun req ->
          let c = client path in
          let fd, _ = Unix.accept listener in
          Unix.close fd;
          (match X.Server.Client.call c req with
           | Error msg ->
             check Alcotest.bool ("connection lost: " ^ msg) true
               (String.starts_with ~prefix:"server connection lost: " msg)
           | Ok _ -> Alcotest.fail "a closed connection answered");
          X.Server.Client.close c)
        [ X.Request.Ping; X.Request.Stats ])

let test_dedup_single_execution () =
  let runner, order = counting_runner ~delay:0.3 () in
  with_server ~runner ~workers:2 ~cache:true (fun socket ->
      let c1 = client socket and c2 = client socket in
      let a = submit_async c1 ~id:"a" [ spec_traf ] in
      let b = submit_async c2 ~id:"b" [ spec_traf ] in
      let o1 = a () in
      let o2 = b () in
      check Alcotest.int "one execution for two submissions" 1
        (List.length (order ()));
      let ok o =
        match (o : X.Response.outcome list) with
        | [ o ] -> Result.is_ok o.X.Response.result
        | _ -> false
      in
      check Alcotest.bool "client 1 got a result" true (ok o1);
      check Alcotest.bool "client 2 got a result" true (ok o2);
      let deduped =
        List.concat [ o1; o2 ]
        |> List.filter (fun o -> o.X.Response.deduped)
        |> List.length
      in
      check Alcotest.int "exactly one waiter marked deduped" 1 deduped;
      let s = server_stats socket in
      check Alcotest.int "dedup_hits counted" 1 s.X.Response.dedup_hits;
      X.Server.Client.close c1;
      X.Server.Client.close c2)

(* Cold cache + N identical concurrent requests: the stampede runs one
   execution, and a later request is served from the now-warm cache. *)
let test_cache_stampede_protection () =
  let runner, order = counting_runner ~delay:0.3 () in
  with_server ~runner ~workers:4 ~cache:true (fun socket ->
      let cs = List.init 3 (fun _ -> client socket) in
      List.mapi (fun i c -> submit_async c ~id:(string_of_int i) [ spec_traf ]) cs
      |> List.iter (fun wait -> ignore (wait ()));
      List.iter X.Server.Client.close cs;
      check Alcotest.int "stampede ran once" 1 (List.length (order ()));
      let c = client socket in
      let late = submit_wait c ~id:"late" [ spec_traf ] in
      X.Server.Client.close c;
      check Alcotest.bool "late request served from cache" true
        (match late with [ o ] -> o.X.Response.cached | _ -> false);
      check Alcotest.int "cache hit did not re-run" 1 (List.length (order ())))

let test_disconnect_cancels_queued_only () =
  let runner, order = counting_runner ~delay:0.3 () in
  with_server ~runner ~workers:1 ~cache:false (fun socket ->
      let a = client socket and b = client socket in
      (* A's first job occupies the only worker; its second is queued. *)
      submit a ~id:"a" [ spec_n 1; spec_n 2 ];
      Thread.delay 0.1;
      let b_done = submit_async b ~id:"b" [ spec_n 3 ] in
      Thread.delay 0.05;
      X.Server.Client.close a;
      let ob = b_done () in
      check Alcotest.bool "B's job completed" true
        (match ob with
         | [ o ] -> Result.is_ok o.X.Response.result
         | _ -> false);
      (* Give the in-flight job time to finish, then inspect. *)
      Thread.delay 0.2;
      let keys = order () in
      let key_of spec =
        match X.Request.Spec.resolve spec with
        | Ok j -> X.Job.key j
        | Error msg -> Alcotest.fail msg
      in
      check Alcotest.bool "A's running job finished" true
        (List.mem (key_of (spec_n 1)) keys);
      check Alcotest.bool "A's queued job was cancelled" false
        (List.mem (key_of (spec_n 2)) keys);
      check Alcotest.bool "B's job ran" true (List.mem (key_of (spec_n 3)) keys);
      X.Server.Client.close b)

let test_fair_queueing () =
  let runner, order = counting_runner ~delay:0.15 () in
  with_server ~runner ~workers:1 ~cache:false (fun socket ->
      let greedy = client socket and polite = client socket in
      let greedy_done =
        submit_async greedy ~id:"g" (List.init 6 (fun i -> spec_n (10 + i)))
      in
      Thread.delay 0.05;
      (* Arrives while the greedy batch monopolizes the queue... *)
      ignore (submit_wait polite ~id:"p" [ spec_n 99 ]);
      ignore (greedy_done ());
      let keys = order () in
      let polite_key =
        match X.Request.Spec.resolve (spec_n 99) with
        | Ok j -> X.Job.key j
        | Error msg -> Alcotest.fail msg
      in
      let position =
        let rec find i = function
          | [] -> Alcotest.fail "polite job never ran"
          | k :: _ when k = polite_key -> i
          | _ :: rest -> find (i + 1) rest
        in
        find 0 keys
      in
      (* ...but round-robin serves it right after the job in flight,
         not behind all six. *)
      check Alcotest.bool
        (Printf.sprintf "polite job ran early (position %d)" position)
        true (position <= 2);
      X.Server.Client.close greedy;
      X.Server.Client.close polite)

(* The acceptance bar: a real measurement through the daemon carries
   byte-identical stats to the same job run in-process. *)
let test_daemon_byte_identical () =
  with_server ~workers:1 ~cache:false (fun socket ->
      let c = client socket in
      X.Server.Client.set_timeout c 120.;
      let outcomes = submit_wait c ~id:"real" [ spec_traf ] in
      X.Server.Client.close c;
      let remote =
        match outcomes with
        | [ { X.Response.result = Ok r; _ } ] -> r
        | _ -> Alcotest.fail "daemon did not return a result"
      in
      let local = Lazy.force tiny_run in
      check Alcotest.string "identical run JSON"
        (J.to_string (X.Run_wire.run_to_json local))
        (J.to_string (X.Run_wire.run_to_json remote)))

(* A truncated entry in the daemon's cache directory is a miss: the submit
   is measured and answered with a well-formed line, the entry is
   rewritten, and the resubmit and the query served from it carry the
   run's bytes unchanged. *)
let test_daemon_rewrites_truncated_entry () =
  let runner, order = counting_runner () in
  let run = Lazy.force tiny_run in
  let text = X.Run_wire.encode run in
  with_temp_dir (fun cache_dir ->
      let job = resolve spec_traf in
      X.Cache.store ~dir:cache_dir job run;
      let file = Filename.concat cache_dir (X.Job.hash job ^ ".job") in
      let full = In_channel.with_open_bin file In_channel.input_all in
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc
            (String.sub full 0 (String.length full - 7)));
      let cfg =
        { X.Server.socket_path = temp_socket (); workers = 1; cache = true;
          cache_dir; obs = X.Server.obs_off }
      in
      let handle = X.Server.start ~runner cfg in
      Fun.protect
        ~finally:(fun () -> X.Server.stop handle)
        (fun () ->
          let c = client cfg.X.Server.socket_path in
          let answer id =
            match submit_wait c ~id [ spec_traf ] with
            | [ { X.Response.cached; result = Ok r; _ } ] ->
              (cached, X.Run_wire.encode r)
            | _ -> Alcotest.failf "%s: no result" id
          in
          let cached, bytes = answer "torn" in
          check Alcotest.bool "torn entry is a miss" false cached;
          check Alcotest.string "measured run" text bytes;
          check Alcotest.int "measured once" 1 (List.length (order ()));
          check Alcotest.string "entry rewritten" full
            (In_channel.with_open_bin file In_channel.input_all);
          let cached, bytes = answer "warm" in
          check Alcotest.bool "rewritten entry hits" true cached;
          check Alcotest.string "hit carries the stored bytes" text bytes;
          X.Server.Client.send c (X.Request.Query spec_traf);
          (match X.Server.Client.recv c with
           | Ok (X.Response.Queried { hit = true; run = Some r }) ->
             check Alcotest.string "query carries the stored bytes" text
               (X.Run_wire.encode r)
           | Ok _ -> Alcotest.fail "query missed"
           | Error msg -> Alcotest.failf "query line: %s" msg);
          check Alcotest.int "hits ran nothing" 1 (List.length (order ()));
          X.Server.Client.close c))

let test_batch_error_reporting () =
  with_server ~workers:1 (fun socket ->
      let c = client socket in
      X.Server.Client.send c
        (X.Request.Submit
           {
             id = "bad";
             cache = false;
             specs =
               [ spec_traf;
                 X.Request.Spec.make ~workload:"NOPE" ~technique:"tp" () ];
           });
      (match X.Server.Client.recv c with
       | Ok (X.Response.Error { message }) ->
         check Alcotest.bool ("names the job: " ^ message) true
           (contains ~sub:"jobs[1]" message
            && contains ~sub:{|unknown workload "NOPE"|} message)
       | Ok _ -> Alcotest.fail "bad batch was accepted"
       | Error msg -> Alcotest.failf "recv failed: %s" msg);
      (* Out-of-range numbers are rejected by [Spec.to_params] with the
         field named, before anything runs or reaches the cache. The raw
         lines spell what the encoder cannot (1e400 parses to infinity). *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let ic = Unix.in_channel_of_descr fd
      and oc = Unix.out_channel_of_descr fd in
      List.iter
        (fun (field, expect) ->
          Printf.fprintf oc
            {|{"v":2,"type":"submit","id":"r","jobs":[{"workload":"TRAF","technique":"tp",%s}]}|}
            field;
          output_char oc '\n';
          flush oc;
          match X.Response.of_line (input_line ic) with
          | Ok (X.Response.Error { message }) ->
            check Alcotest.bool (field ^ " rejected: " ^ message) true
              (contains ~sub:("jobs[0]: " ^ expect) message)
          | Ok _ -> Alcotest.failf "%s was accepted" field
          | Error msg -> Alcotest.failf "undecodable reply: %s" msg)
        [ ({|"scale":-1|}, "scale must be finite and > 0");
          ({|"scale":0|}, "scale must be finite and > 0");
          ({|"scale":1e400|}, "scale must be finite and > 0");
          ({|"iterations":0|}, "iterations must be >= 1");
          ({|"iterations":-5|}, "iterations must be >= 1");
          ({|"chunk_objs":0|}, "chunk_objs must be >= 1") ];
      close_in ic;
      (* The connection survives a rejected batch. *)
      X.Server.Client.send c X.Request.Ping;
      (match X.Server.Client.recv c with
       | Ok X.Response.Pong -> ()
       | _ -> Alcotest.fail "connection died after a rejected batch");
      check Alcotest.int "nothing was submitted" 0
        (server_stats socket).X.Response.submitted;
      X.Server.Client.close c)

(* [Client.submit]'s failures are values: a rejected batch names the bad
   job and leaves the connection answering, and a daemon that stops
   mid-batch is a lost connection, not a hang or an exception. *)
let test_client_submit_errors () =
  with_server ~workers:1 (fun socket ->
      let c = client socket in
      (match
         X.Server.Client.submit c ~id:"bad"
           [ spec_traf; X.Request.Spec.make ~workload:"NOPE" ~technique:"tp" () ]
       with
       | Error msg ->
         check Alcotest.bool ("names the workload: " ^ msg) true
           (contains ~sub:{|unknown workload "NOPE"|} msg)
       | Ok _ -> Alcotest.fail "bad batch was accepted");
      X.Server.Client.send c X.Request.Ping;
      (match X.Server.Client.recv c with
       | Ok X.Response.Pong -> ()
       | _ -> Alcotest.fail "connection died after a rejected batch");
      X.Server.Client.close c);
  let runner, _ = counting_runner ~delay:0.2 () in
  with_temp_dir (fun cache_dir ->
      let cfg =
        { X.Server.socket_path = temp_socket (); workers = 1; cache = false;
          cache_dir; obs = X.Server.obs_off }
      in
      let handle = X.Server.start ~runner cfg in
      let c = client cfg.X.Server.socket_path in
      let answer = ref (Ok ([], X.Response.no_jobs)) in
      let t0 = Unix.gettimeofday () in
      let th =
        Thread.create
          (fun () ->
            answer :=
              X.Server.Client.submit c ~id:"cut" (List.init 4 spec_n))
          ()
      in
      Thread.delay 0.1;
      X.Server.stop handle;
      Thread.join th;
      X.Server.Client.close c;
      match !answer with
      | Error msg ->
        check Alcotest.bool ("connection lost: " ^ msg) true
          (contains ~sub:"server connection lost" msg);
        check Alcotest.bool "answered before the receive timeout" true
          (Unix.gettimeofday () -. t0 < 10.)
      | Ok _ -> Alcotest.fail "a cut batch completed")

(* A submit line trickled one byte per write holds up no one: another
   client's batch completes in between, and the trickled batch is
   answered once its newline lands. *)
let test_byte_at_a_time_submitter () =
  let runner, _ = counting_runner () in
  with_server ~runner ~workers:1 (fun socket ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
      let line =
        X.Request.to_line
          (X.Request.Submit { id = "slow"; cache = true; specs = [ spec_n 1 ] })
        ^ "\n"
      in
      let trickle lo hi =
        for i = lo to hi - 1 do
          ignore (Unix.write_substring fd line i 1);
          Thread.delay 0.001
        done
      in
      let half = String.length line / 2 in
      trickle 0 half;
      let c = client socket in
      (match submit_wait c ~id:"fast" [ spec_n 2 ] with
       | [ { X.Response.result = Ok _; _ } ] -> ()
       | _ -> Alcotest.fail "the other client's batch failed");
      X.Server.Client.close c;
      trickle half (String.length line);
      let ic = Unix.in_channel_of_descr fd in
      let rec answers acc =
        match X.Response.of_line (input_line ic) with
        | Ok (X.Response.Batch_done { id = "slow"; jobs; failed; _ }) ->
          (List.rev acc, jobs, failed)
        | Ok r -> answers (r :: acc)
        | Error msg -> Alcotest.failf "undecodable reply: %s" msg
      in
      let replies, jobs, failed = answers [] in
      close_in ic;
      check Alcotest.int "trickled batch answered" 1 jobs;
      check Alcotest.int "and succeeded" 0 failed;
      check Alcotest.bool "with its job's result" true
        (List.exists
           (function
             | X.Response.Job_done { id = "slow"; index = 0; _ } -> true
             | _ -> false)
           replies))

(* The in-process twin of CI's serve smoke: the same jobs through a live
   daemon and through [Executor.run] give byte-identical runs, the same
   cells and one report document. *)
let test_submit_matches_executor () =
  let specs =
    [ spec_traf;
      X.Request.Spec.make ~scale:0.02 ~workload:"GOL" ~technique:"cuda" () ]
  in
  let jobs = List.map resolve specs in
  let local =
    List.map X.Response.outcome_of_executor (X.Executor.run jobs)
  in
  with_server ~workers:1 (fun socket ->
      let c = client socket in
      X.Server.Client.set_timeout c 120.;
      let remote, summary =
        match X.Server.Client.submit c ~id:"twin" specs with
        | Ok answer -> answer
        | Error msg -> Alcotest.fail msg
      in
      X.Server.Client.close c;
      let field key o =
        match X.Response.outcome_to_json o with
        | J.Obj fields -> J.to_string (List.assoc key fields)
        | _ -> Alcotest.fail "outcome is not an object"
      in
      check (Alcotest.list Alcotest.string) "same cells"
        (List.map (field "job") local) (List.map (field "job") remote);
      check (Alcotest.list Alcotest.string) "byte-identical runs"
        (List.map (field "run") local) (List.map (field "run") remote);
      let keys summary outcomes =
        match
          X.Response.report_json ~scale:0.02 ~wall_s:0. summary outcomes
        with
        | J.Obj fields -> List.map fst fields
        | _ -> Alcotest.fail "report is not an object"
      in
      check (Alcotest.list Alcotest.string) "same document keys"
        (keys (List.fold_left X.Response.count X.Response.no_jobs local) local)
        (keys summary remote);
      check Alcotest.int "daemon measured both" 2 summary.X.Response.measured)

(* --- line framing ------------------------------------------------------------ *)

(* Framing is a function of the byte stream alone: any split into chunks
   yields the lines one [feed] of the whole stream yields. *)
let prop_feed_chunking =
  QCheck.Test.make ~count:300 ~name:"feed: any chunking frames the same lines"
    QCheck.(
      pair
        (string_gen_of_size (Gen.int_bound 200) (Gen.oneofl [ 'a'; 'b'; '\r'; '\n' ]))
        (list (int_bound 40)))
    (fun (stream, cuts) ->
      let lines session chunks =
        List.concat_map
          (fun chunk ->
            match X.Session.feed session chunk with
            | Ok lines -> lines
            | Error _ -> [ "<overflow>" ])
          chunks
      in
      let chunks =
        let rec split pos = function
          | _ when pos >= String.length stream -> []
          | [] -> [ String.sub stream pos (String.length stream - pos) ]
          | c :: rest ->
            let len = min c (String.length stream - pos) in
            String.sub stream pos len :: split (pos + len) rest
        in
        split 0 cuts
      in
      lines (X.Session.create ~id:0 Unix.stdin) [ stream ]
      = lines (X.Session.create ~id:1 Unix.stdin) chunks)

(* --- fuzz: the decoder answers every line, never raises ------------------ *)

let decodes_or_errs line =
  match X.Request.of_line line with Ok _ | Error _ -> true

let prop_of_line_bytes =
  QCheck.Test.make ~count:1000 ~name:"of_line never raises on arbitrary bytes"
    QCheck.(
      oneof
        [ string;
          string_gen_of_size (Gen.int_bound 120)
            (Gen.oneofl
               [ '{'; '}'; '['; ']'; '"'; ':'; ','; '\\'; 'u'; '0'; '9'; '-';
                 'e'; '.'; 'v'; 'n'; 't'; ' ' ]) ])
    decodes_or_errs

(* Every valid request line, cut short or with one byte replaced. *)
let prop_of_line_mutations =
  let valid = Array.of_list (List.map X.Request.to_line sample_requests) in
  QCheck.Test.make ~count:1000
    ~name:"of_line never raises on truncated or mutated requests"
    QCheck.(
      make ~print:Fun.id
        Gen.(
          let* line = oneofa valid in
          let n = String.length line in
          let* cut = int_bound n in
          let* i = int_bound (n - 1) in
          let* c = char in
          let* truncate = bool in
          return
            (if truncate then String.sub line 0 cut
             else String.mapi (fun j x -> if j = i then c else x) line)))
    decodes_or_errs

(* Arrays and objects nested as deep as a line may be long. *)
let nested ~kind depth =
  match kind with
  | `Open -> String.make depth '['
  | `Arrays -> String.make depth '[' ^ String.make depth ']'
  | `Objects ->
    let b = Buffer.create ((6 * depth) + 1) in
    for _ = 1 to depth do Buffer.add_string b {|{"v":|} done;
    Buffer.add_char b '2';
    Buffer.add_string b (String.make depth '}');
    Buffer.contents b

let prop_of_line_nesting =
  let cap = X.Session.max_line_bytes in
  QCheck.Test.make ~count:40 ~name:"of_line never raises on deep nesting"
    QCheck.(
      make
        ~print:(fun (k, d) ->
          Printf.sprintf "%s x%d"
            (match k with `Open -> "[" | `Arrays -> "[]" | `Objects -> "{}")
            d)
        Gen.(
          let* kind = oneofl [ `Open; `Arrays; `Objects ] in
          let per_level = match kind with `Open -> 1 | `Arrays -> 2 | `Objects -> 6 in
          let* depth =
            oneof [ int_range 1 64; int_range 1 ((cap - 1) / per_level) ]
          in
          return (kind, depth)))
    (fun (kind, depth) -> decodes_or_errs (nested ~kind depth))

(* The extremes, pinned: a full line of open brackets is an error, and so
   are the deepest closed nests that still fit in a line. *)
let test_of_line_nesting_at_cap () =
  let cap = X.Session.max_line_bytes in
  List.iter
    (fun (label, line) ->
      check Alcotest.bool (label ^ " fits in a line") true
        (String.length line <= cap);
      match X.Request.of_line line with
      | Ok _ -> Alcotest.failf "%s decoded as a request" label
      | Error _ -> ())
    [ ("1 MiB of [", nested ~kind:`Open cap);
      ("nested arrays", nested ~kind:`Arrays (cap / 2));
      ("nested objects", nested ~kind:`Objects ((cap - 1) / 6)) ]

(* A line longer than the cap is answered with an error and a close as
   soon as its bytes pass the cap, newline or not; the daemon serves the
   next client as before. *)
let test_oversized_line_rejected () =
  with_server ~workers:1 (fun socket ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let line = Bytes.make (X.Session.max_line_bytes + 1) 'x' in
      let rec write_all off =
        if off < Bytes.length line then
          write_all (off + Unix.write fd line off (Bytes.length line - off))
      in
      write_all 0;
      let ic = Unix.in_channel_of_descr fd in
      (match X.Response.of_line (input_line ic) with
       | Ok (X.Response.Error { message }) ->
         check Alcotest.bool ("names the cap: " ^ message) true
           (contains ~sub:(string_of_int X.Session.max_line_bytes) message)
       | Ok _ -> Alcotest.fail "oversized line was accepted"
       | Error msg -> Alcotest.failf "undecodable reply: %s" msg);
      check Alcotest.bool "session closed" true
        (match input_line ic with _ -> false | exception End_of_file -> true);
      close_in ic;
      let c = client socket in
      X.Server.Client.send c X.Request.Ping;
      (match X.Server.Client.recv c with
       | Ok X.Response.Pong -> ()
       | _ -> Alcotest.fail "daemon stopped serving after an oversized line");
      X.Server.Client.close c)

(* --- observability: the daemon's own account of itself -------------------- *)

(* Off by default: a stats response from an obs-off daemon carries no
   svc/stages keys — byte-identical to the pre-observability wire form. *)
let test_stats_byte_compat_obs_off () =
  with_server (fun socket ->
      let s = server_stats socket in
      check Alcotest.bool "no svc snapshot" true (s.X.Response.svc = None);
      check Alcotest.bool "no stage histograms" true
        (s.X.Response.stages = []);
      let line = X.Response.to_line (X.Response.Server_stats s) in
      check Alcotest.bool "wire form has no svc key" false
        (contains ~sub:{|"svc"|} line);
      check Alcotest.bool "wire form has no stages key" false
        (contains ~sub:{|"stages"|} line))

(* Health answers regardless of observability config. *)
let test_health_roundtrip_live () =
  with_server ~workers:2 (fun socket ->
      let c = client socket in
      X.Server.Client.send c X.Request.Health;
      (match X.Server.Client.recv c with
       | Ok (X.Response.Health h) ->
         check Alcotest.int "schema" X.Request.schema_version
           h.X.Response.h_schema;
         check Alcotest.int "workers" 2 h.X.Response.h_workers;
         check Alcotest.bool "uptime non-negative" true
           (h.X.Response.h_uptime_s >= 0.);
         check Alcotest.bool "this session is counted" true
           (h.X.Response.h_sessions >= 1);
         check Alcotest.int "nothing queued" 0 h.X.Response.h_queued;
         check Alcotest.int "nothing running" 0 h.X.Response.h_running
       | Ok _ -> Alcotest.fail "expected a health response"
       | Error msg -> Alcotest.failf "recv failed: %s" msg);
      X.Server.Client.close c)

(* Nearest-rank percentile of a sorted array: the same rank as
   [Hist.quantile]. *)
let percentile sorted p =
  sorted.(max 0 (int_of_float (ceil (p *. float_of_int (Array.length sorted))) - 1))

(* With metrics on, the end-to-end "request" histogram counts exactly
   the request lines answered — each stats probe snapshots before its
   own completion, so it never counts itself. Under concurrent load the
   server's timings also agree with its clients': each server-side
   "request" record lies inside the client-timed latency of the same
   request, so each server percentile's lower bound is at most the
   client-side percentile (element-wise domination survives sorting). *)
let test_request_histogram_counts_requests () =
  let runner, _ = counting_runner () in
  with_server ~runner ~obs:(X.Server.obs_default ()) (fun socket ->
      let c = client socket in
      for _ = 1 to 3 do
        X.Server.Client.send c X.Request.Ping;
        match X.Server.Client.recv c with
        | Ok X.Response.Pong -> ()
        | _ -> Alcotest.fail "no pong"
      done;
      X.Server.Client.send c X.Request.Stats;
      let s =
        match X.Server.Client.recv c with
        | Ok (X.Response.Server_stats s) -> s
        | _ -> Alcotest.fail "no stats"
      in
      let svc =
        match s.X.Response.svc with
        | Some svc -> svc
        | None -> Alcotest.fail "metrics on but no svc snapshot"
      in
      check Alcotest.int "3 requests completed before this probe" 3
        (O.Svc_metrics.count O.Svc_metrics.requests svc);
      let hist name =
        match List.assoc_opt name s.X.Response.stages with
        | Some h -> h
        | None -> Alcotest.failf "no %S histogram" name
      in
      check Alcotest.int "request histogram agrees" 3
        (O.Hist.count (hist "request"));
      check Alcotest.bool "every stage histogram is present" true
        (List.for_all
           (fun n -> List.mem_assoc n s.X.Response.stages)
           O.Svc_metrics.stage_names);
      (* A submit rides the same accounting: one more request, one run. *)
      ignore (submit_wait c ~id:"x" [ spec_traf ]);
      X.Server.Client.send c X.Request.Stats;
      let s' =
        match X.Server.Client.recv c with
        | Ok (X.Response.Server_stats s) -> s
        | _ -> Alcotest.fail "no stats"
      in
      let hist' name =
        match List.assoc_opt name s'.X.Response.stages with
        | Some h -> h
        | None -> Alcotest.failf "no %S histogram" name
      in
      (* 3 pings + first stats + submit = 5 completed request lines. *)
      check Alcotest.int "submit counted end-to-end" 5
        (O.Hist.count (hist' "request"));
      check Alcotest.int "one execution in the run histogram" 1
        (O.Hist.count (hist' "run"));
      (* Decode is timed before handling, so this probe has already
         recorded its own decode — one ahead of the completed count. *)
      check Alcotest.int "decode timed for every request line" 6
        (O.Hist.count (hist' "decode"));
      X.Server.Client.close c);
  (* 4 clients x 25 mixed requests: one- and two-job submits over a pool
     of 4 specs (so dedup and the cache both answer), queries and pings. *)
  let pool =
    [| ("TRAF", 42); ("TRAF", 43); ("GOL", 42); ("GOL", 43) |]
    |> Array.map (fun (workload, seed) ->
           X.Request.Spec.make ~scale:0.02 ~seed ~workload ~technique:"tp" ())
  in
  let clients = 4 and per_client = 25 in
  let load socket i =
    let c = client socket in
    let pick k = pool.((i + k) mod Array.length pool) in
    let submitted specs id =
      match X.Server.Client.submit c ~id specs with
      | Ok (_, summary) -> summary.X.Response.failed = 0
      | Error _ -> false
    in
    let answered req ok =
      X.Server.Client.send c req;
      match X.Server.Client.recv c with Ok resp -> ok resp | Error _ -> false
    in
    let latencies = Array.make per_client 0. and failures = ref 0 in
    for k = 0 to per_client - 1 do
      let id = Printf.sprintf "c%d-%d" i k in
      let t0 = Unix.gettimeofday () in
      let ok =
        match (i + k) mod 5 with
        | 0 | 1 -> submitted [ pick k ] id
        | 2 -> submitted [ pick k; pick (k + 1) ] id
        | 3 ->
          answered (X.Request.Query (pick k)) (function
            | X.Response.Queried _ -> true | _ -> false)
        | _ ->
          answered X.Request.Ping (function
            | X.Response.Pong -> true | _ -> false)
      in
      latencies.(k) <- Unix.gettimeofday () -. t0;
      if not ok then incr failures
    done;
    X.Server.Client.close c;
    (latencies, !failures)
  in
  let runner, _ = counting_runner () in
  with_server ~runner ~workers:2 ~cache:true ~obs:(X.Server.obs_default ())
    (fun socket ->
      let results = Array.make clients ([||], 0) in
      List.init clients (fun i ->
          Thread.create (fun () -> results.(i) <- load socket i) ())
      |> List.iter Thread.join;
      check Alcotest.int "no request fails" 0
        (Array.fold_left (fun n (_, f) -> n + f) 0 results);
      let client_side = Array.concat (List.map fst (Array.to_list results)) in
      Array.sort compare client_side;
      let request = List.assoc "request" (server_stats socket).X.Response.stages in
      check Alcotest.int "the final probe counts every request sent"
        (clients * per_client) (O.Hist.count request);
      List.iter
        (fun p ->
          let server_lo =
            match O.Hist.quantile request p with
            | Some (lo, _) -> lo
            | None -> Alcotest.fail "empty request histogram"
          in
          let client = percentile client_side p in
          if server_lo > client +. 1e-9 then
            Alcotest.failf "server p%g >= %.3fms exceeds client-side %.3fms"
              (p *. 100.) (server_lo *. 1e3) (client *. 1e3))
        [ 0.50; 0.95; 0.99 ])

(* trace-dump returns a structurally valid Chrome trace document
   covering the request's own stages. *)
let test_trace_dump_live () =
  let runner, _ = counting_runner () in
  with_server ~runner ~obs:(X.Server.obs_default ()) (fun socket ->
      let c = client socket in
      ignore (submit_wait c ~id:"t" [ spec_traf ]);
      X.Server.Client.send c X.Request.Trace_dump;
      (match X.Server.Client.recv c with
       | Ok (X.Response.Trace_dump { spans; dropped; trace }) ->
         check Alcotest.bool "spans recorded" true (spans > 0);
         check Alcotest.int "nothing dropped" 0 dropped;
         (match O.Tracer.validate trace with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "invalid trace: %s" msg)
       | Ok _ -> Alcotest.fail "expected a trace dump"
       | Error msg -> Alcotest.failf "recv failed: %s" msg);
      X.Server.Client.close c)

(* Overlapping jobs on two workers: every span in the dump names its
   stage and sits on the right track — the worker stages of each request
   on the track of the worker that ran its job, everything else on the
   event thread's — and the stage histograms count exactly the spans. A
   miss is probed twice, on the event thread and then by its worker; a
   hit never leaves the event thread and is never queued. *)
let test_trace_dump_tracks_workers () =
  let lock = Mutex.create () in
  let ran = Hashtbl.create 8 in  (* job key -> domain that ran it *)
  let run = Lazy.force tiny_run in
  let runner (job : X.Job.t) =
    Mutex.lock lock;
    Hashtbl.replace ran (X.Job.key job) (Domain.self () :> int);
    Mutex.unlock lock;
    Thread.delay 0.1;
    Ok run
  in
  let jobs = 4 in
  with_server ~runner ~workers:2 ~cache:true ~obs:(X.Server.obs_default ())
    (fun socket ->
      let c = client socket in
      (* One submit line per job, all before any answer: request line i
         gets trace id i, and the jobs overlap on the two workers. *)
      for i = 1 to jobs do
        submit c ~id:(string_of_int i) [ spec_n i ]
      done;
      let rec await n =
        if n > 0 then
          match X.Server.Client.recv c with
          | Ok (X.Response.Batch_done _) -> await (n - 1)
          | Ok _ -> await n
          | Error msg -> Alcotest.failf "recv failed: %s" msg
      in
      await jobs;
      (* Request line [jobs + 1] resubmits job 1: a cache hit. *)
      let hit = jobs + 1 in
      submit c ~id:(string_of_int hit) [ spec_n 1 ];
      await 1;
      X.Server.Client.send c X.Request.Stats;
      let stages =
        match X.Server.Client.recv c with
        | Ok (X.Response.Server_stats s) -> s.X.Response.stages
        | _ -> Alcotest.fail "no stats"
      in
      X.Server.Client.send c X.Request.Trace_dump;
      let trace =
        match X.Server.Client.recv c with
        | Ok (X.Response.Trace_dump { trace; dropped; _ }) ->
          check Alcotest.int "nothing dropped" 0 dropped;
          trace
        | _ -> Alcotest.fail "no trace dump"
      in
      X.Server.Client.close c;
      let spans =
        Option.bind (J.member "traceEvents" trace) J.list_opt
        |> Option.value ~default:[]
        |> List.filter_map (fun ev ->
               match
                 ( J.member "ph" ev, J.member "name" ev, J.member "tid" ev,
                   Option.bind (J.member "args" ev) (J.member "trace") )
               with
               | ( Some (J.String "X"), Some (J.String name), Some (J.Int tid),
                   Some (J.Int trace) ) ->
                 Some (name, tid, trace)
               | _ -> None)
      in
      let worker_stage name = List.mem name [ "queued"; "run" ] in
      List.iter
        (fun (name, tid, trace) ->
          check Alcotest.bool (name ^ " is a stage") true
            (List.mem name O.Svc_metrics.stage_names);
          if worker_stage name then
            check Alcotest.bool
              (Printf.sprintf "%s of trace %d on a worker track" name trace)
              true
              (tid = 1 || tid = 2)
          else if name <> "cache_probe" then
            check Alcotest.int (name ^ " on the event thread") 0 tid)
        spans;
      (* The track of each job: all its worker-side spans agree on it,
         and two jobs share a track exactly when one domain ran both. *)
      let track_of trace =
        match
          List.sort_uniq compare
            (List.filter_map
               (fun (_, tid, t) -> if t = trace && tid > 0 then Some tid else None)
               spans)
        with
        | [ tid ] -> tid
        | tids ->
          Alcotest.failf "trace %d has worker stages on %d tracks" trace
            (List.length tids)
      in
      let domain_of i =
        match X.Request.Spec.resolve (spec_n i) with
        | Ok job -> Hashtbl.find ran (X.Job.key job)
        | Error msg -> Alcotest.fail msg
      in
      let count i stage ~worker =
        List.length
          (List.filter
             (fun (n, tid, t) -> n = stage && t = i && (tid > 0) = worker)
             spans)
      in
      for i = 1 to jobs do
        List.iter
          (fun stage ->
            check Alcotest.int
              (Printf.sprintf "trace %d has one %s span" i stage)
              1 (count i stage ~worker:true))
          [ "queued"; "cache_probe"; "run" ];
        check Alcotest.int
          (Printf.sprintf "trace %d was probed on the event thread" i)
          1 (count i "cache_probe" ~worker:false);
        for j = 1 to jobs do
          check Alcotest.bool
            (Printf.sprintf "jobs %d and %d: same track iff same worker" i j)
            (domain_of i = domain_of j)
            (track_of i = track_of j)
        done
      done;
      check (Alcotest.list Alcotest.string)
        "a hit's stages, all on the event thread"
        [ "cache_probe"; "decode"; "encode"; "request" ]
        (List.sort_uniq compare
           (List.filter_map
              (fun (n, tid, t) ->
                if t = hit then Some (if tid = 0 then n else "worker " ^ n)
                else None)
              spans));
      check Alcotest.bool "both workers ran jobs" true
        (List.exists (fun i -> track_of i = 1) (List.init jobs succ)
         && List.exists (fun i -> track_of i = 2) (List.init jobs succ));
      (* The stats probe snapshots before its own encode and request
         records; the dump, one request later, also holds those two and
         its own decode. Every other stage matches exactly. *)
      List.iter
        (fun name ->
          let spans_named =
            List.length (List.filter (fun (n, _, _) -> n = name) spans)
          in
          let later = if List.mem name [ "decode"; "encode"; "request" ] then 1 else 0 in
          match List.assoc_opt name stages with
          | Some h ->
            check Alcotest.int (name ^ ": histogram counts the spans")
              spans_named (O.Hist.count h + later)
          | None -> Alcotest.failf "no %s histogram" name)
        O.Svc_metrics.stage_names)

(* ...and an obs-off daemon says so instead of returning an empty one. *)
let test_trace_dump_disabled () =
  with_server (fun socket ->
      let c = client socket in
      X.Server.Client.send c X.Request.Trace_dump;
      (match X.Server.Client.recv c with
       | Ok (X.Response.Error { message }) ->
         check Alcotest.bool ("says disabled: " ^ message) true
           (contains ~sub:"disabled" message)
       | Ok _ -> Alcotest.fail "expected an error"
       | Error msg -> Alcotest.failf "recv failed: %s" msg);
      (* The connection survives. *)
      X.Server.Client.send c X.Request.Ping;
      (match X.Server.Client.recv c with
       | Ok X.Response.Pong -> ()
       | _ -> Alcotest.fail "connection died after trace-dump error");
      X.Server.Client.close c)

(* --- one request path, two configurations ------------------------------- *)

let both_obs () =
  [ ("obs off", X.Server.obs_off); ("obs on", X.Server.obs_default ()) ]

(* Responses up to and including the first one [last] accepts. *)
let recv_through c last =
  let rec go acc =
    match X.Server.Client.recv c with
    | Error msg -> Alcotest.failf "recv failed: %s" msg
    | Ok r when last r -> List.rev (r :: acc)
    | Ok r -> go (r :: acc)
  in
  go []

let is_batch_done = function X.Response.Batch_done _ -> true | _ -> false

(* A worker exception is the job's failure, not the daemon's: the job
   reports the exception text, the batch counts it, and the connection
   keeps serving. *)
let test_raising_runner () =
  let runner _ = failwith "runner exploded" in
  List.iter
    (fun (label, obs) ->
      with_server ~runner ~obs (fun socket ->
          let c = client socket in
          (match X.Server.Client.submit c ~id:"boom" [ spec_traf ] with
           | Ok ([ { X.Response.result = Error msg; _ } ], summary) ->
             check Alcotest.bool (label ^ ": error names the exception: " ^ msg)
               true
               (contains ~sub:"runner exploded" msg);
             check Alcotest.int (label ^ ": batch counts the failure") 1
               summary.X.Response.failed
           | Ok _ -> Alcotest.failf "%s: a raising runner succeeded" label
           | Error msg -> Alcotest.failf "%s: %s" label msg);
          X.Server.Client.send c X.Request.Ping;
          (match X.Server.Client.recv c with
           | Ok X.Response.Pong -> ()
           | _ -> Alcotest.failf "%s: daemon stopped answering" label);
          X.Server.Client.close c))
    (both_obs ())

(* The same script against an obs-off and an obs-on daemon: the answers
   agree byte for byte once the measured wall times are zeroed. *)
let test_obs_on_off_same_answers () =
  let zero_wall = function
    | X.Response.Job_done r ->
      X.Response.Job_done
        { r with outcome = { r.outcome with X.Response.wall_s = 0. } }
    | X.Response.Batch_done r -> X.Response.Batch_done { r with wall_s = 0. }
    | r -> r
  in
  let script (_, obs) =
    let runner, _ = counting_runner () in
    with_server ~runner ~cache:true ~obs (fun socket ->
        let c = client socket in
        let ask req last =
          X.Server.Client.send c req;
          recv_through c last
        in
        let answers =
          ask X.Request.Ping (fun _ -> true)
          @ ask
              (X.Request.Submit { id = "s"; cache = true; specs = [ spec_traf ] })
              is_batch_done
          @ ask
              (X.Request.Submit { id = "w"; cache = true; specs = [ spec_traf ] })
              is_batch_done
          @ ask (X.Request.Query spec_traf) (fun _ -> true)
          @ ask (X.Request.Invalidate (Some spec_traf)) (fun _ -> true)
        in
        X.Server.Client.close c;
        List.map (fun r -> X.Response.to_line (zero_wall r)) answers)
  in
  match List.map script (both_obs ()) with
  | [ off; on ] ->
    check Alcotest.int "pong, ack, running, job_done, batch_done, then the \
                        warm ack, job_done, batch_done, queried, invalidated"
      10 (List.length off);
    check (Alcotest.list Alcotest.string) "same answers" off on
  | _ -> assert false

(* --- the hit path ------------------------------------------------------------ *)

(* The answers, each cut to its head, for a failure message. *)
let lines answers =
  List.map
    (fun r ->
      let l = X.Response.to_line r in
      if String.length l <= 72 then l else String.sub l 0 72 ^ "...")
    answers
  |> String.concat " | "

(* A warm submit is answered in the turn that reads it: ack, job_done and
   batch_done, never a running line, and no worker time. *)
let test_hit_answered_without_running () =
  let runner, order = counting_runner () in
  with_server ~runner ~cache:true ~obs:(X.Server.obs_default ())
    ~warm:[ spec_traf ] (fun socket ->
      let c = client socket in
      submit c ~id:"w" [ spec_traf ];
      (match recv_through c is_batch_done with
       | [
           X.Response.Ack { id = "w"; jobs = 1 };
           X.Response.Job_done
             { id = "w"; index = 0;
               outcome = { cached = true; deduped = false; wall_s; result = Ok _; _ } };
           X.Response.Batch_done
             { id = "w"; jobs = 1; cached = 1; measured = 0; deduped = 0;
               failed = 0; _ };
         ] ->
         check (Alcotest.float 0.) "a hit's wall time" 0. wall_s
       | answers -> Alcotest.failf "warm submit answered: %s" (lines answers));
      let running = ref 0 in
      for i = 1 to 2 do
        ignore
          (outcomes_of "again"
             (X.Server.Client.submit c
                ~on_running:(fun _ _ -> incr running)
                ~id:(string_of_int i) [ spec_traf ]))
      done;
      check Alcotest.int "on_running never called" 0 !running;
      X.Server.Client.close c;
      let s = server_stats socket in
      check Alcotest.int "cache_hits" 3 s.X.Response.cache_hits;
      check Alcotest.int "executed" 0 s.X.Response.executed;
      check Alcotest.int "submitted" 3 s.X.Response.submitted;
      (match s.X.Response.svc with
       | Some svc ->
         check Alcotest.bool "worker_busy_s did not grow" true
           (O.Svc_metrics.value O.Svc_metrics.worker_busy_s svc
            = O.Svc_metrics.Float 0.)
       | None -> Alcotest.fail "metrics on but no svc snapshot");
      let count stage = O.Hist.count (List.assoc stage s.X.Response.stages) in
      check Alcotest.int "three probes" 3 (count "cache_probe");
      check Alcotest.int "nothing queued" 0 (count "queued");
      check Alcotest.int "nothing run" 0 (count "run");
      check Alcotest.int "no runner call" 0 (List.length (order ())))

(* One hit and one miss in a batch: the hit is answered, never running,
   before the miss starts running, and the batch tallies one of each. *)
let test_mixed_batch_answers_hit_first () =
  let runner, order = counting_runner () in
  with_server ~runner ~cache:true ~warm:[ spec_traf ] (fun socket ->
      let c = client socket in
      submit c ~id:"m" [ spec_traf; spec_n 5 ];
      let answers = recv_through c is_batch_done in
      X.Server.Client.close c;
      (match answers with
       | [
           X.Response.Ack { jobs = 2; _ };
           X.Response.Job_done { index = 0; outcome = { cached = true; _ }; _ };
           X.Response.Running { index = 1; _ };
           X.Response.Job_done { index = 1; outcome = { cached = false; _ }; _ };
           X.Response.Batch_done { jobs = 2; cached = 1; measured = 1; _ };
         ] -> ()
       | _ -> Alcotest.failf "mixed batch answered: %s" (lines answers));
      check Alcotest.int "the miss ran once" 1 (List.length (order ())))

(* A warm submit from B is answered while the only worker is held by A's
   job: the hit never waits for a worker. The runner holds A's job until
   the test releases it, so a hit that queued would time out. *)
let test_hit_not_behind_busy_worker () =
  let started = Atomic.make false and release = Atomic.make false in
  let run = Lazy.force tiny_run in
  let runner _ =
    Atomic.set started true;
    let deadline = Unix.gettimeofday () +. 10. in
    while (not (Atomic.get release)) && Unix.gettimeofday () < deadline do
      Thread.delay 0.01
    done;
    Ok run
  in
  with_server ~runner ~workers:1 ~cache:true ~warm:[ spec_traf ]
    (fun socket ->
      let a = client socket and b = client socket in
      let a_done = submit_async a ~id:"a" [ spec_n 1 ] in
      while not (Atomic.get started) do
        Thread.delay 0.01
      done;
      X.Server.Client.set_timeout b 3.;
      let ob = X.Server.Client.submit b ~id:"b" [ spec_traf ] in
      let held = not (Atomic.get release) in
      Atomic.set release true;
      let oa = a_done () in
      check Alcotest.bool "A's job was still running" true held;
      (match ob with
       | Ok ([ o ], _) ->
         check Alcotest.bool "B served from the cache" true o.X.Response.cached
       | Ok _ -> Alcotest.fail "B: wrong outcome count"
       | Error msg -> Alcotest.failf "B waited for the worker: %s" msg);
      check Alcotest.bool "A measured" false
        (match oa with [ o ] -> o.X.Response.cached | _ -> true);
      X.Server.Client.close a;
      X.Server.Client.close b)

(* The event thread probes only when both the daemon and the batch cache:
   a [cache: false] batch on a warm cache is measured without a probe,
   and a daemon started with the cache off never reads a planted entry. *)
let test_uncached_paths_never_probe () =
  let runner, order = counting_runner () in
  with_server ~runner ~cache:true ~obs:(X.Server.obs_default ())
    ~warm:[ spec_traf ] (fun socket ->
      let c = client socket in
      (match X.Server.Client.submit ~cache:false c ~id:"nc" [ spec_traf ] with
       | Ok ([ o ], summary) ->
         check Alcotest.bool "cache: false is measured" false
           o.X.Response.cached;
         check Alcotest.int "tallied measured" 1 summary.X.Response.measured
       | Ok _ | Error _ -> Alcotest.fail "cache: false batch failed");
      X.Server.Client.close c;
      let s = server_stats socket in
      check Alcotest.int "no probe" 0
        (O.Hist.count (List.assoc "cache_probe" s.X.Response.stages));
      check Alcotest.int "ran once" 1 (List.length (order ())));
  let runner, order = counting_runner () in
  with_server ~runner ~cache:false ~warm:[ spec_traf ] (fun socket ->
      let c = client socket in
      (match submit_wait c ~id:"off" [ spec_traf ] with
       | [ o ] ->
         check Alcotest.bool "cache-off daemon measures" false
           o.X.Response.cached
       | _ -> Alcotest.fail "wrong outcome count");
      X.Server.Client.close c;
      check Alcotest.int "cache-off daemon ran it" 1 (List.length (order ()));
      check Alcotest.int "no cache hit counted" 0
        (server_stats socket).X.Response.cache_hits)

let suite =
  [
    Alcotest.test_case "technique codec is total" `Quick
      test_technique_codec_total;
    QCheck_alcotest.to_alcotest spec_roundtrip;
    Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
    Alcotest.test_case "response round-trip" `Quick test_response_roundtrip;
    Alcotest.test_case "run is bit-exact on the wire" `Quick
      test_run_wire_fidelity;
    Alcotest.test_case "decode errors name the field" `Quick
      test_decode_errors_name_field;
    Alcotest.test_case "golden run fixture round-trips byte for byte" `Quick
      test_fixture_roundtrip;
    Alcotest.test_case "golden run fixture pins the stats keys" `Quick
      test_fixture_stats_keys;
    Alcotest.test_case "stats without tlb keys decode as zeros" `Quick
      test_fixture_pre_translation_peer;
    Alcotest.test_case "stats decode errors name the field" `Quick
      test_fixture_rejects_bad_stats;
    Alcotest.test_case "golden cells round-trip byte for byte and bit for bit"
      `Quick test_golden_cells;
    Alcotest.test_case "cache entry format is pinned" `Quick
      test_cache_entry_golden;
    Alcotest.test_case "sampled runs are bit-exact and splice byte for byte"
      `Quick test_sampled_runs_splice_exactly;
    Alcotest.test_case "schema version checked" `Quick
      test_schema_version_checked;
    Alcotest.test_case "removed intern field is ignored" `Quick
      test_removed_intern_field_ignored;
    Alcotest.test_case "spec resolution" `Quick test_spec_resolution;
    Alcotest.test_case "dedup: two clients, one execution" `Quick
      test_dedup_single_execution;
    Alcotest.test_case "cache stampede runs once" `Quick
      test_cache_stampede_protection;
    Alcotest.test_case "disconnect cancels queued jobs only" `Quick
      test_disconnect_cancels_queued_only;
    Alcotest.test_case "round-robin protects the polite client" `Quick
      test_fair_queueing;
    Alcotest.test_case "daemon result is byte-identical" `Quick
      test_daemon_byte_identical;
    Alcotest.test_case "daemon rewrites a truncated cache entry" `Quick
      test_daemon_rewrites_truncated_entry;
    Alcotest.test_case "batch errors name the job; connection survives" `Quick
      test_batch_error_reporting;
    Alcotest.test_case "Client.submit: rejection and a stopped daemon are errors"
      `Quick test_client_submit_errors;
    Alcotest.test_case "Client.call: a dropped connection is an error" `Quick
      test_call_on_dropped_connection;
    Alcotest.test_case "a byte-at-a-time submitter blocks no one" `Quick
      test_byte_at_a_time_submitter;
    Alcotest.test_case "Client.submit matches Executor.run" `Quick
      test_submit_matches_executor;
    QCheck_alcotest.to_alcotest prop_feed_chunking;
    QCheck_alcotest.to_alcotest prop_of_line_bytes;
    QCheck_alcotest.to_alcotest prop_of_line_mutations;
    QCheck_alcotest.to_alcotest prop_of_line_nesting;
    Alcotest.test_case "of_line rejects nesting at the line cap" `Quick
      test_of_line_nesting_at_cap;
    Alcotest.test_case "oversized request line is rejected and closed" `Quick
      test_oversized_line_rejected;
    Alcotest.test_case "stats wire form unchanged with obs off" `Quick
      test_stats_byte_compat_obs_off;
    Alcotest.test_case "health round-trips on a live daemon" `Quick
      test_health_roundtrip_live;
    Alcotest.test_case "request histogram counts every request line" `Quick
      test_request_histogram_counts_requests;
    Alcotest.test_case "trace-dump is a valid Chrome trace" `Quick
      test_trace_dump_live;
    Alcotest.test_case "trace-dump errors cleanly when disabled" `Quick
      test_trace_dump_disabled;
    Alcotest.test_case "trace-dump puts each stage on its worker's track"
      `Quick test_trace_dump_tracks_workers;
    Alcotest.test_case
      "a raising runner fails its job and the daemon keeps serving" `Quick
      test_raising_runner;
    Alcotest.test_case "obs on and off answer a request script identically"
      `Quick test_obs_on_off_same_answers;
    Alcotest.test_case "a cache hit is answered without running" `Quick
      test_hit_answered_without_running;
    Alcotest.test_case "a mixed batch answers its hit before the miss runs"
      `Quick test_mixed_batch_answers_hit_first;
    Alcotest.test_case "a hit is not stuck behind a busy worker" `Quick
      test_hit_not_behind_busy_worker;
    Alcotest.test_case "cache: false and a cache-off daemon never probe"
      `Quick test_uncached_paths_never_probe;
  ]
