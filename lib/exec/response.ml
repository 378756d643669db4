module W = Repro_workloads
module T = Repro_core.Technique
module G = Repro_gpu
module J = Repro_obs.Json
module D = Repro_obs.Json.Decode
module H = Repro_obs.Hist
module Svc = Repro_obs.Svc_metrics

(* --- Stats wire form ------------------------------------------------------

   [Stats]' counter table declares the form (see [Json.of_counters]):
   scalars by wire key, then the two label-indexed families and the
   violation-kind family as objects keyed by slug with zero entries
   omitted, so the format survives enum reordering and stays readable.
   Ints ride as JSON ints and floats in the shortest-exact form, so a
   decoded snapshot equals the original bit for bit. *)

let stats_to_json (stats : G.Stats.t) =
  J.of_counters G.Stats.table (stats :> float array)

let stats_decoder j =
  let s = G.Stats.create () in
  D.counters G.Stats.table (s :> float array) j;
  s

(* --- Harness.run wire form ------------------------------------------------ *)

let alloc_stats_to_json (a : Repro_core.Allocator.stats) =
  J.Obj
    [
      ("objects", J.Int a.Repro_core.Allocator.objects);
      ("live_objects", J.Int a.Repro_core.Allocator.live_objects);
      ("reserved_bytes", J.Int a.Repro_core.Allocator.reserved_bytes);
      ("used_bytes", J.Int a.Repro_core.Allocator.used_bytes);
      ("padded_bytes", J.Int a.Repro_core.Allocator.padded_bytes);
      ("alloc_cycles", J.Float a.Repro_core.Allocator.alloc_cycles);
      ("free_cycles", J.Float a.Repro_core.Allocator.free_cycles);
      ( "bitmap_scan_cycles",
        J.Float a.Repro_core.Allocator.bitmap_scan_cycles );
    ]

let alloc_stats_decoder j =
  let objects = D.field "objects" D.int j in
  {
    Repro_core.Allocator.objects;
    (* The capability counters default for leniency toward pre-alloc-
       family peers (the envelope version still gates real skew). *)
    live_objects = D.field_default "live_objects" D.int objects j;
    reserved_bytes = D.field "reserved_bytes" D.int j;
    used_bytes = D.field "used_bytes" D.int j;
    padded_bytes = D.field_default "padded_bytes" D.int 0 j;
    alloc_cycles = D.field "alloc_cycles" D.float j;
    free_cycles = D.field_default "free_cycles" D.float 0. j;
    bitmap_scan_cycles = D.field_default "bitmap_scan_cycles" D.float 0. j;
  }

let run_to_json (r : W.Harness.run) =
  J.Obj
    [
      ("workload", J.String r.W.Harness.workload);
      ( "technique",
        J.String (Request.technique_to_string r.W.Harness.technique) );
      ( "alloc",
        J.String (Repro_core.Alloc_family.name r.W.Harness.alloc) );
      ("cycles", J.Float r.W.Harness.cycles);
      ("checksum", J.Int r.W.Harness.checksum);
      ("result", J.Int r.W.Harness.result);
      ("n_objects", J.Int r.W.Harness.n_objects);
      ("n_types", J.Int r.W.Harness.n_types);
      ("n_vfuncs", J.Int r.W.Harness.n_vfuncs);
      ("vfunc_pki", J.Float r.W.Harness.vfunc_pki);
      ("warp_vcalls", J.Int r.W.Harness.warp_vcalls);
      ("alloc_stats", alloc_stats_to_json r.W.Harness.alloc_stats);
      ("stats", stats_to_json r.W.Harness.stats);
      ( "kernel_stats",
        J.List (List.map stats_to_json r.W.Harness.kernel_stats) );
    ]

let technique_decoder j =
  let s = D.string j in
  match Request.technique_of_string s with
  | Ok t -> t
  | Error msg -> D.fail msg

let alloc_family_decoder j =
  let s = D.string j in
  match Repro_core.Alloc_family.of_string s with
  | Ok fam -> fam
  | Error msg -> D.fail msg

let run_decoder j =
  let technique = D.field "technique" technique_decoder j in
  {
    W.Harness.workload = D.field "workload" D.string j;
    technique;
    alloc =
      (match D.field_opt "alloc" alloc_family_decoder j with
       | Some fam -> fam
       | None -> Repro_core.Alloc_family.default_for technique);
    cycles = D.field "cycles" D.float j;
    stats = D.field "stats" stats_decoder j;
    kernel_stats = D.field_default "kernel_stats" (D.list stats_decoder) [] j;
    (* Telemetry never rides the wire: daemon jobs are plain measurement
       jobs (Job.cacheable), which carry none. *)
    window = None;
    kernel_windows = [];
    trace = None;
    checksum = D.field "checksum" D.int j;
    result = D.field "result" D.int j;
    n_objects = D.field "n_objects" D.int j;
    n_types = D.field "n_types" D.int j;
    n_vfuncs = D.field "n_vfuncs" D.int j;
    vfunc_pki = D.field "vfunc_pki" D.float j;
    warp_vcalls = D.field "warp_vcalls" D.int j;
    alloc_stats = D.field "alloc_stats" alloc_stats_decoder j;
  }

(* --- Outcomes ------------------------------------------------------------- *)

type outcome = {
  spec : Request.Spec.t;
  cached : bool;
  deduped : bool;
  wall_s : float;
  result : (W.Harness.run, string) result;
}

let outcome_of_executor ?(deduped = false) (o : Executor.outcome) =
  {
    spec = Request.Spec.of_job o.Executor.job;
    cached = o.Executor.cached;
    deduped;
    wall_s = o.Executor.wall_s;
    result = o.Executor.result;
  }

let outcome_to_json o =
  J.Obj
    ([
       ("job", Request.Spec.to_json o.spec);
       ("cached", J.Bool o.cached);
       ("deduped", J.Bool o.deduped);
       ("wall_s", J.Float o.wall_s);
     ]
    @
    match o.result with
    | Ok run -> [ ("run", run_to_json run) ]
    | Error msg -> [ ("error", J.String msg) ])

let outcome_decoder j =
  let error = D.field_opt "error" D.string j in
  {
    spec = D.field "job" Request.Spec.decoder j;
    cached = D.field "cached" D.bool j;
    deduped = D.field "deduped" D.bool j;
    wall_s = D.field "wall_s" D.float j;
    result =
      (match error with
       | Some msg -> Error msg
       | None -> Ok (D.field "run" run_decoder j));
  }

(* --- Responses ------------------------------------------------------------ *)

type server_stats = {
  sessions : int;
  submitted : int;
  executed : int;
  dedup_hits : int;
  cache_hits : int;
  queued : int;
  running : int;
  uptime_s : float;
  (* Present only when the daemon runs with observability on — additive
     optional fields, so the envelope version stays put and an obs-off
     daemon's stats line is byte-identical to the pre-observability one. *)
  svc : Svc.snapshot option;
  stages : (string * H.t) list;
}

type health = {
  h_uptime_s : float;
  h_schema : int;
  h_workers : int;
  h_sessions : int;
  h_queued : int;
  h_running : int;
}

type t =
  | Ack of { id : string; jobs : int }
  | Running of { id : string; index : int }
  | Job_done of { id : string; index : int; outcome : outcome }
  | Batch_done of {
      id : string;
      jobs : int;
      measured : int;
      cached : int;
      deduped : int;
      failed : int;
      wall_s : float;
    }
  | Queried of { hit : bool; run : W.Harness.run option }
  | Invalidated of { removed : int }
  | Server_stats of server_stats
  | Health of health
  | Trace_dump of { spans : int; dropped : int; trace : J.t }
  | Pong
  | Bye
  | Error of { message : string }

let envelope typ fields =
  J.Obj
    (("v", J.Int Request.schema_version) :: ("type", J.String typ) :: fields)

let to_json = function
  | Ack { id; jobs } ->
    envelope "ack" [ ("id", J.String id); ("jobs", J.Int jobs) ]
  | Running { id; index } ->
    envelope "running" [ ("id", J.String id); ("index", J.Int index) ]
  | Job_done { id; index; outcome } ->
    envelope "job_done"
      [
        ("id", J.String id);
        ("index", J.Int index);
        ("outcome", outcome_to_json outcome);
      ]
  | Batch_done { id; jobs; measured; cached; deduped; failed; wall_s } ->
    envelope "batch_done"
      [
        ("id", J.String id);
        ("jobs", J.Int jobs);
        ("measured", J.Int measured);
        ("cached", J.Int cached);
        ("deduped", J.Int deduped);
        ("failed", J.Int failed);
        ("wall_s", J.Float wall_s);
      ]
  | Queried { hit; run } ->
    envelope "queried"
      (("hit", J.Bool hit)
       ::
       (match run with Some r -> [ ("run", run_to_json r) ] | None -> []))
  | Invalidated { removed } -> envelope "invalidated" [ ("removed", J.Int removed) ]
  | Server_stats s ->
    envelope "server_stats"
      ([
         ("sessions", J.Int s.sessions);
         ("submitted", J.Int s.submitted);
         ("executed", J.Int s.executed);
         ("dedup_hits", J.Int s.dedup_hits);
         ("cache_hits", J.Int s.cache_hits);
         ("queued", J.Int s.queued);
         ("running", J.Int s.running);
         ("uptime_s", J.Float s.uptime_s);
       ]
      @ (match s.svc with
         | Some svc -> [ ("svc", Svc.to_json svc) ]
         | None -> [])
      @
      match s.stages with
      | [] -> []
      | stages ->
        [ ("stages", J.Obj (List.map (fun (n, h) -> (n, H.to_json h)) stages)) ])
  | Health h ->
    envelope "health"
      [
        ("uptime_s", J.Float h.h_uptime_s);
        ("schema", J.Int h.h_schema);
        ("workers", J.Int h.h_workers);
        ("sessions", J.Int h.h_sessions);
        ("queued", J.Int h.h_queued);
        ("running", J.Int h.h_running);
      ]
  | Trace_dump { spans; dropped; trace } ->
    envelope "trace_dump"
      [ ("spans", J.Int spans); ("dropped", J.Int dropped); ("trace", trace) ]
  | Pong -> envelope "pong" []
  | Bye -> envelope "bye" []
  | Error { message } -> envelope "error" [ ("message", J.String message) ]

let decoder j =
  let v = D.field "v" D.int j in
  if v <> Request.schema_version then
    D.field "v"
      (fun _ ->
        D.fail
          (Printf.sprintf
             "unsupported schema version %d (this client speaks %d)" v
             Request.schema_version))
      j;
  match D.field "type" D.string j with
  | "ack" ->
    Ack { id = D.field "id" D.string j; jobs = D.field "jobs" D.int j }
  | "running" ->
    Running { id = D.field "id" D.string j; index = D.field "index" D.int j }
  | "job_done" ->
    Job_done
      {
        id = D.field "id" D.string j;
        index = D.field "index" D.int j;
        outcome = D.field "outcome" outcome_decoder j;
      }
  | "batch_done" ->
    Batch_done
      {
        id = D.field "id" D.string j;
        jobs = D.field "jobs" D.int j;
        measured = D.field "measured" D.int j;
        cached = D.field "cached" D.int j;
        deduped = D.field "deduped" D.int j;
        failed = D.field "failed" D.int j;
        wall_s = D.field "wall_s" D.float j;
      }
  | "queried" ->
    Queried
      {
        hit = D.field "hit" D.bool j;
        run = D.field_opt "run" run_decoder j;
      }
  | "invalidated" -> Invalidated { removed = D.field "removed" D.int j }
  | "server_stats" ->
    Server_stats
      {
        sessions = D.field "sessions" D.int j;
        submitted = D.field "submitted" D.int j;
        executed = D.field "executed" D.int j;
        dedup_hits = D.field "dedup_hits" D.int j;
        cache_hits = D.field "cache_hits" D.int j;
        queued = D.field "queued" D.int j;
        running = D.field "running" D.int j;
        uptime_s = D.field "uptime_s" D.float j;
        svc = D.field_opt "svc" Svc.decoder j;
        stages = D.field_default "stages" (D.obj H.decoder) [] j;
      }
  | "health" ->
    Health
      {
        h_uptime_s = D.field "uptime_s" D.float j;
        h_schema = D.field "schema" D.int j;
        h_workers = D.field "workers" D.int j;
        h_sessions = D.field "sessions" D.int j;
        h_queued = D.field "queued" D.int j;
        h_running = D.field "running" D.int j;
      }
  | "trace_dump" ->
    Trace_dump
      {
        spans = D.field "spans" D.int j;
        dropped = D.field "dropped" D.int j;
        trace = D.field "trace" D.value j;
      }
  | "pong" -> Pong
  | "bye" -> Bye
  | "error" -> Error { message = D.field "message" D.string j }
  | other ->
    D.field "type"
      (fun _ -> D.fail (Printf.sprintf "unknown response type %S" other))
      j

let of_json j = D.run decoder j

let to_line t = J.to_string (to_json t)

let of_line line =
  match J.of_string line with
  | Stdlib.Error msg -> Stdlib.Error ("malformed JSON: " ^ msg)
  | Stdlib.Ok j -> of_json j
