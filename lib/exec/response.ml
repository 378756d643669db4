module W = Repro_workloads
module J = Repro_obs.Json
module D = Repro_obs.Json.Decode
module H = Repro_obs.Hist
module Svc = Repro_obs.Svc_metrics

(* --- Outcomes ------------------------------------------------------------- *)

type summary = {
  jobs : int;
  measured : int;
  cached : int;
  deduped : int;
  failed : int;
  wall_s : float;
}

type 'run outcome_of = {
  spec : Request.Spec.t;
  cached : bool;
  deduped : bool;
  wall_s : float;
  result : ('run, string) result;
}

type outcome = W.Harness.run outcome_of

let outcome_of_executor ?(deduped = false) (o : _ Executor.outcome_of) =
  {
    spec = Request.Spec.of_job o.Executor.job;
    cached = o.Executor.cached;
    deduped;
    wall_s = o.Executor.wall_s;
    result = o.Executor.result;
  }

(* Every outcome object is built here, whatever form its run is in: [leaf]
   turns the run into its JSON — [run_to_json] for a decoded run, [J.Raw]
   for wire text spliced in as is. *)
let outcome_json leaf o =
  J.Obj
    ([
       ("job", Request.Spec.to_json o.spec);
       ("cached", J.Bool o.cached);
       ("deduped", J.Bool o.deduped);
       ("wall_s", J.Float o.wall_s);
     ]
    @
    match o.result with
    | Ok run -> [ ("run", leaf run) ]
    | Error msg -> [ ("error", J.String msg) ])

let outcome_to_json = outcome_json Run_wire.run_to_json

type status = Cached | Deduped | Measured

let status (o : _ outcome_of) =
  if o.cached then Cached else if o.deduped then Deduped else Measured

let no_jobs =
  { jobs = 0; measured = 0; cached = 0; deduped = 0; failed = 0; wall_s = 0. }

let count (s : summary) (o : _ outcome_of) =
  let add n st = if status o = st then n + 1 else n in
  {
    jobs = s.jobs + 1;
    measured = add s.measured Measured;
    cached = add s.cached Cached;
    deduped = add s.deduped Deduped;
    failed = (if Result.is_error o.result then s.failed + 1 else s.failed);
    wall_s = s.wall_s +. o.wall_s;
  }

let report_json ~scale ~wall_s (s : summary) outcomes =
  J.Obj
    [
      ("scale", J.Float scale);
      ("jobs", J.Int s.jobs);
      ("measured", J.Int s.measured);
      ("cached", J.Int s.cached);
      ("deduped", J.Int s.deduped);
      ("failed", J.Int s.failed);
      ("job_time_s", J.Float s.wall_s);
      ("wall_s", J.Float wall_s);
      ("outcomes", J.List (List.map outcome_to_json outcomes));
    ]

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
       | None -> Ok (D.field "run" Run_wire.run_decoder j));
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

let batch_done ~id (s : summary) =
  Batch_done
    {
      id;
      jobs = s.jobs;
      measured = s.measured;
      cached = s.cached;
      deduped = s.deduped;
      failed = s.failed;
      wall_s = s.wall_s;
    }

let envelope typ fields =
  J.Obj
    (("v", J.Int Request.schema_version) :: ("type", J.String typ) :: fields)

(* The two lines that carry a run, each built by one function for both of
   its forms (see [outcome_json]). *)
let job_done_json leaf ~id ~index outcome =
  envelope "job_done"
    [
      ("id", J.String id);
      ("index", J.Int index);
      ("outcome", outcome_json leaf outcome);
    ]

let queried_json leaf ~hit run =
  envelope "queried"
    (("hit", J.Bool hit)
     :: (match run with Some r -> [ ("run", leaf r) ] | None -> []))

let to_json = function
  | Ack { id; jobs } ->
    envelope "ack" [ ("id", J.String id); ("jobs", J.Int jobs) ]
  | Running { id; index } ->
    envelope "running" [ ("id", J.String id); ("index", J.Int index) ]
  | Job_done { id; index; outcome } ->
    job_done_json Run_wire.run_to_json ~id ~index outcome
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
  | Queried { hit; run } -> queried_json Run_wire.run_to_json ~hit run
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
        run = D.field_opt "run" Run_wire.run_decoder j;
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

let raw text = J.Raw text

let job_done_line ~id ~index outcome =
  J.to_string (job_done_json raw ~id ~index outcome)

let queried_line run =
  J.to_string (queried_json raw ~hit:(Option.is_some run) run)

let of_line line =
  match J.of_string line with
  | Stdlib.Error msg -> Stdlib.Error ("malformed JSON: " ^ msg)
  | Stdlib.Ok j -> of_json j
