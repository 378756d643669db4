module W = Repro_workloads
module Log = Repro_obs.Log
module Hist = Repro_obs.Hist
module Svc = Repro_obs.Svc_metrics
module Tracer = Repro_obs.Tracer

type obs = {
  log : Log.t;
  metrics : Svc.t option;
  spans : Tracer.Ring.t option;
  slow_s : float;
}

let obs_off =
  { log = Log.null; metrics = None; spans = None; slow_s = infinity }

let obs_default ?(log = Log.null) ?(slow_s = 0.25) ?(trace_capacity = 4096) ()
    =
  {
    log;
    metrics = Some (Svc.create ());
    spans =
      (if trace_capacity > 0 then
         Some (Tracer.Ring.create ~capacity:trace_capacity)
       else None);
    slow_s;
  }

type config = {
  socket_path : string;
  workers : int;
  cache : bool;
  cache_dir : string;
  obs : obs;
}

let default_socket () =
  match Sys.getenv_opt "REPRO_SOCKET" with
  | Some s when s <> "" -> s
  | _ -> "_repro_serve.sock"

let default_config () =
  {
    socket_path = default_socket ();
    workers = Executor.default_jobs ();
    cache = true;
    cache_dir = Cache.default_dir ();
    obs = obs_off;
  }

type job_runner = Job.t -> (W.Harness.run, string) result

(* --- Scheduler state ------------------------------------------------------

   Guarded by [mutex]; workers and the event thread are the only
   parties. Waiter lists reference sessions, but workers never touch
   them — they snapshot the list under the lock and ship it to the event
   thread inside an event. *)

type waiter = {
  w_session : Session.t;
  w_batch : Session.batch;
  w_index : int;
  w_deduped : bool;
  w_attached_at : float;  (* dedup_wait span start; 0. when obs is off *)
}

type entry = {
  e_key : string;
  e_job : Job.t;
  e_cache : bool;
  e_trace : int;          (* trace id of the creating submit request *)
  e_enqueued_at : float;  (* queued span start; 0. when obs is off *)
  mutable e_state : [ `Queued | `Running | `Done | `Cancelled ];
  mutable e_waiters : waiter list;  (* newest first *)
}

type event =
  | Started of waiter list
  | Finished of waiter list * Executor.outcome

type t = {
  cfg : config;
  runner : job_runner option;
  mutex : Mutex.t;
  cond : Condition.t;
  queues : (int, entry Queue.t) Hashtbl.t;  (* session id -> pending *)
  mutable rr : int list;  (* round-robin service order of session ids *)
  inflight : (string, entry) Hashtbl.t;  (* Job.key -> entry *)
  events : event Queue.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable stopping : bool;
  mutable submitted : int;
  mutable executed : int;
  mutable dedup_hits : int;
  mutable cache_hits : int;
  mutable running_count : int;
  started_at : float;
  (* Observability. [obs_on] is precomputed so every instrumentation
     site is one load+branch when the daemon runs bare — the PR 4/5
     zero-allocation request path survives unchanged. Trace ids are
     assigned by the event thread only; [cur_trace] is the request it is
     currently servicing (attributes encode spans from Session.send). *)
  obs_on : bool;
  mutable next_trace : int;
  mutable cur_trace : int;
}

let wake t =
  (* Nonblocking: if the pipe is full the event thread is already due
     to wake up, so a dropped byte loses nothing. *)
  try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

let push_event t ev =
  Queue.push ev t.events;
  wake t

(* --- Observability taps ---------------------------------------------------

   Span timestamps ride the ring relative to server start. Stage
   histograms have two ownership classes: decode/dedup_wait/encode/
   request are written by the event thread only (no lock), queued/
   cache_probe/run by workers under [t.mutex] — [server_stats] snapshots
   under the same mutex from the event thread, so both classes read
   consistently. *)

let span t ~name ~track ~trace ~t0 ~dur =
  match t.cfg.obs.spans with
  | None -> ()
  | Some ring ->
    Tracer.Ring.record ring ~name ~track ~trace ~ts:(t0 -. t.started_at) ~dur

let record_stage t name dur =
  match t.cfg.obs.metrics with
  | None -> ()
  | Some m -> Hist.record (Svc.stage m name) dur

(* Close the books on one request line: the end-to-end span, the
   "request" histogram — whose count therefore equals request lines
   served — and the slow-request log. Fires at the terminal response
   only: synchronous requests at the end of [handle_request], a submit
   at its [Batch_done]. *)
let finish_request t ~trace ~t0 =
  if t.obs_on then begin
    let dur = Unix.gettimeofday () -. t0 in
    span t ~name:"request" ~track:0 ~trace ~t0 ~dur;
    record_stage t "request" dur;
    (match t.cfg.obs.metrics with
     | None -> ()
     | Some m ->
       m.Svc.requests <- m.Svc.requests + 1;
       if dur >= t.cfg.obs.slow_s then
         m.Svc.slow_requests <- m.Svc.slow_requests + 1);
    if dur >= t.cfg.obs.slow_s && Log.enabled t.cfg.obs.log Warn then
      Log.log t.cfg.obs.log Warn "request.slow"
        [ ("trace", Log.Int trace); ("dur_s", Log.Float dur) ]
  end

(* Fair pick: walk the round-robin list; the first session with a live
   queued entry wins and rotates to the back. Entries cancelled while
   queued (or whose waiters all disconnected) are discarded here. *)
let pick_next t =
  let rec pop_live q =
    if Queue.is_empty q then None
    else
      let e = Queue.pop q in
      if e.e_state = `Queued && e.e_waiters <> [] then Some e
      else begin
        if e.e_state = `Queued then begin
          e.e_state <- `Cancelled;
          Hashtbl.remove t.inflight e.e_key
        end;
        pop_live q
      end
  in
  let rec walk served = function
    | [] ->
      t.rr <- List.rev served;
      None
    | sid :: rest -> (
      match Hashtbl.find_opt t.queues sid with
      | None -> walk served rest  (* reaped session: drop from the order *)
      | Some q -> (
        match pop_live q with
        | Some e ->
          t.rr <- List.rev_append served rest @ [ sid ];
          Some e
        | None -> walk (sid :: served) rest))
  in
  walk [] t.rr

let worker_loop t widx () =
  let track = widx + 1 in  (* span track 0 is the event thread *)
  let rec next () =
    Mutex.lock t.mutex;
    let rec acquire () =
      if t.stopping then None
      else
        match pick_next t with
        | Some e -> Some e
        | None ->
          Condition.wait t.cond t.mutex;
          acquire ()
    in
    match acquire () with
    | None -> Mutex.unlock t.mutex
    | Some e ->
      e.e_state <- `Running;
      t.running_count <- t.running_count + 1;
      if t.obs_on then begin
        let d = Unix.gettimeofday () -. e.e_enqueued_at in
        span t ~name:"queued" ~track ~trace:e.e_trace ~t0:e.e_enqueued_at
          ~dur:d;
        record_stage t "queued" d  (* t.mutex held *)
      end;
      push_event t (Started e.e_waiters);
      Mutex.unlock t.mutex;
      let exec_span =
        if t.cfg.obs.spans = None && t.cfg.obs.metrics = None then None
        else
          Some
            (fun ~stage ~t0 ~dur ->
              span t ~name:stage ~track ~trace:e.e_trace ~t0 ~dur;
              match t.cfg.obs.metrics with
              | None -> ()
              | Some m ->
                Mutex.lock t.mutex;
                Hist.record (Svc.stage m stage) dur;
                Mutex.unlock t.mutex)
      in
      let m0 = if t.obs_on then Unix.gettimeofday () else 0. in
      let outcome =
        Executor.measure ?span:exec_span ?runner:t.runner ~cache:e.e_cache
          ~dir:t.cfg.cache_dir e.e_job
      in
      if Log.enabled t.cfg.obs.log Info then
        Log.log t.cfg.obs.log Info "job.done"
          [
            ("trace", Log.Int e.e_trace);
            ("job", Log.Str (Job.label e.e_job));
            ("wall_s", Log.Float outcome.Executor.wall_s);
            ("cached", Log.Bool outcome.Executor.cached);
          ];
      Mutex.lock t.mutex;
      e.e_state <- `Done;
      t.running_count <- t.running_count - 1;
      Hashtbl.remove t.inflight e.e_key;
      if outcome.Executor.cached then t.cache_hits <- t.cache_hits + 1
      else t.executed <- t.executed + 1;
      (match t.cfg.obs.metrics with
       | None -> ()
       | Some m ->
         m.Svc.worker_busy_s <-
           m.Svc.worker_busy_s +. (Unix.gettimeofday () -. m0);
         if e.e_cache && not outcome.Executor.cached then
           m.Svc.cache_misses <- m.Svc.cache_misses + 1);
      push_event t (Finished (e.e_waiters, outcome));
      Mutex.unlock t.mutex;
      next ()
  in
  next ()

(* --- Event-thread side ---------------------------------------------------- *)

let queue_for t sid =
  match Hashtbl.find_opt t.queues sid with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Hashtbl.replace t.queues sid q;
    t.rr <- t.rr @ [ sid ];
    q

let finish_job t (w : waiter) outcome =
  if not w.w_session.Session.closed then begin
    if t.obs_on && w.w_deduped then begin
      let d = Unix.gettimeofday () -. w.w_attached_at in
      span t ~name:"dedup_wait" ~track:0 ~trace:w.w_batch.Session.trace
        ~t0:w.w_attached_at ~dur:d;
      record_stage t "dedup_wait" d
    end;
    Session.send w.w_session
      (Response.Job_done
         { id = w.w_batch.Session.batch_id; index = w.w_index; outcome });
    if Session.record_done w.w_session w.w_batch outcome then begin
      Session.send w.w_session
        (Response.Batch_done
           {
             id = w.w_batch.Session.batch_id;
             jobs = w.w_batch.Session.total;
             measured = w.w_batch.Session.measured;
             cached = w.w_batch.Session.cached;
             deduped = w.w_batch.Session.deduped;
             failed = w.w_batch.Session.failed;
             wall_s = w.w_batch.Session.wall_s;
           });
      finish_request t ~trace:w.w_batch.Session.trace
        ~t0:w.w_batch.Session.started_at
    end
  end

let drain_events t =
  let pending = Queue.create () in
  Mutex.lock t.mutex;
  Queue.transfer t.events pending;
  Mutex.unlock t.mutex;
  Queue.iter
    (function
      | Started waiters ->
        List.iter
          (fun w ->
            if not w.w_session.Session.closed then begin
              if t.obs_on then t.cur_trace <- w.w_batch.Session.trace;
              Session.send w.w_session
                (Response.Running
                   { id = w.w_batch.Session.batch_id; index = w.w_index })
            end)
          waiters
      | Finished (waiters, exec_outcome) ->
        List.iter
          (fun w ->
            if t.obs_on then t.cur_trace <- w.w_batch.Session.trace;
            finish_job t w
              (Response.outcome_of_executor ~deduped:w.w_deduped exec_outcome))
          waiters)
    pending

let server_stats t ~sessions =
  Mutex.lock t.mutex;
  let queued =
    Hashtbl.fold
      (fun _ e n -> if e.e_state = `Queued then n + 1 else n)
      t.inflight 0
  in
  let svc, stages =
    match t.cfg.obs.metrics with
    | None -> (None, [])
    | Some m ->
      (* The scheduler's own counters stay the source of truth for the
         four job counters; mirror them into the registry at snapshot
         time instead of double-counting at every increment site. *)
      m.Svc.submitted <- t.submitted;
      m.Svc.executed <- t.executed;
      m.Svc.dedup_hits <- t.dedup_hits;
      m.Svc.cache_hits <- t.cache_hits;
      ( Some
          (Svc.snapshot m ~sessions ~queue_depth:queued
             ~inflight:(Hashtbl.length t.inflight) ~running:t.running_count),
        List.map (fun n -> (n, Hist.copy (Svc.stage m n))) Svc.stage_names )
  in
  let s =
    {
      Response.sessions;
      submitted = t.submitted;
      executed = t.executed;
      dedup_hits = t.dedup_hits;
      cache_hits = t.cache_hits;
      queued;
      running = t.running_count;
      uptime_s = Unix.gettimeofday () -. t.started_at;
      svc;
      stages;
    }
  in
  Mutex.unlock t.mutex;
  s

(* Returns [true] when the request already saw its terminal response
   (rejected or empty batch); a scheduled batch finishes at
   [Batch_done] in [finish_job]. *)
let handle_submit t session ~trace ~t0 ~id ~cache ~specs =
  (* Resolve the whole batch up front: a batch with any bad spec is
     rejected atomically, naming the offending entry. *)
  let resolved =
    List.mapi
      (fun i spec ->
        match Request.Spec.resolve spec with
        | Ok job -> Ok job
        | Error msg -> Error (Printf.sprintf "jobs[%d]: %s" i msg))
      specs
  in
  match
    List.find_map (function Error m -> Some m | Ok _ -> None) resolved
  with
  | Some message ->
    Session.send session (Response.Error { message });
    true
  | None ->
    let jobs = List.map (function Ok j -> j | Error _ -> assert false) resolved in
    let total = List.length jobs in
    Session.send session (Response.Ack { id; jobs = total });
    if total = 0 then begin
      Session.send session
        (Response.Batch_done
           {
             id;
             jobs = 0;
             measured = 0;
             cached = 0;
             deduped = 0;
             failed = 0;
             wall_s = 0.;
           });
      true
    end
    else begin
      let batch = Session.begin_batch session ~id ~total in
      batch.Session.trace <- trace;
      batch.Session.started_at <- t0;
      let enq = if t.obs_on then Unix.gettimeofday () else 0. in
      let announce_running = ref [] in
      Mutex.lock t.mutex;
      List.iteri
        (fun index job ->
          let key = Job.key job in
          t.submitted <- t.submitted + 1;
          match Hashtbl.find_opt t.inflight key with
          | Some e when e.e_state = `Queued || e.e_state = `Running ->
            let w =
              { w_session = session; w_batch = batch; w_index = index;
                w_deduped = true; w_attached_at = enq }
            in
            e.e_waiters <- w :: e.e_waiters;
            t.dedup_hits <- t.dedup_hits + 1;
            (* A dedup hit on a cache-enabled entry is exactly a
               stampede avoided: without the in-flight table this
               submission would race the cold cache. *)
            (match t.cfg.obs.metrics with
             | Some m when e.e_cache ->
               m.Svc.stampede_avoided <- m.Svc.stampede_avoided + 1
             | _ -> ());
            if e.e_state = `Running then
              announce_running := (id, index) :: !announce_running
          | _ ->
            let e =
              {
                e_key = key;
                e_job = job;
                e_cache = t.cfg.cache && cache;
                e_trace = trace;
                e_enqueued_at = enq;
                e_state = `Queued;
                e_waiters =
                  [ { w_session = session; w_batch = batch; w_index = index;
                      w_deduped = false; w_attached_at = enq } ];
              }
            in
            Hashtbl.replace t.inflight key e;
            Queue.push e (queue_for t session.Session.id);
            Condition.signal t.cond)
        jobs;
      Mutex.unlock t.mutex;
      (* Late joiners to an already-running execution get their Running
         notice immediately (the Started event fired before they attached). *)
      List.iter
        (fun (id, index) ->
          Session.send session (Response.Running { id; index }))
        (List.rev !announce_running);
      false
    end

let handle_request t session ~sessions ~trace ~t0 req =
  let finished =
    match req with
    | Request.Ping ->
      Session.send session Response.Pong;
      true
    | Request.Stats ->
      Session.send session (Response.Server_stats (server_stats t ~sessions));
      true
    | Request.Health ->
      Mutex.lock t.mutex;
      let queued =
        Hashtbl.fold
          (fun _ e n -> if e.e_state = `Queued then n + 1 else n)
          t.inflight 0
      in
      let running = t.running_count in
      Mutex.unlock t.mutex;
      Session.send session
        (Response.Health
           {
             h_uptime_s = Unix.gettimeofday () -. t.started_at;
             h_schema = Request.schema_version;
             h_workers = max 1 t.cfg.workers;
             h_sessions = sessions;
             h_queued = queued;
             h_running = running;
           });
      true
    | Request.Trace_dump ->
      (match t.cfg.obs.spans with
       | None ->
         Session.send session
           (Response.Error { message = "tracing is disabled on this server" })
       | Some ring ->
         let spans = Tracer.Ring.dump ring in
         let tracks =
           (0, "events")
           :: List.init (max 1 t.cfg.workers) (fun i ->
                  (i + 1, Printf.sprintf "worker %d" (i + 1)))
         in
         Session.send session
           (Response.Trace_dump
              {
                spans = List.length spans;
                dropped = Tracer.Ring.dropped ring;
                trace = Tracer.spans_to_json ~tracks spans;
              }));
      true
    | Request.Query spec ->
      (match Request.Spec.resolve spec with
       | Error message -> Session.send session (Response.Error { message })
       | Ok job ->
         let run =
           if t.cfg.cache then Cache.lookup ~dir:t.cfg.cache_dir job else None
         in
         Session.send session (Response.Queried { hit = run <> None; run }));
      true
    | Request.Invalidate (Some spec) ->
      (match Request.Spec.resolve spec with
       | Error message -> Session.send session (Response.Error { message })
       | Ok job ->
         let removed =
           if Cache.invalidate ~dir:t.cfg.cache_dir job then 1 else 0
         in
         Session.send session (Response.Invalidated { removed }));
      true
    | Request.Submit { id; cache; specs } ->
      if t.stopping then begin
        Session.send session
          (Response.Error { message = "server is shutting down" });
        true
      end
      else handle_submit t session ~trace ~t0 ~id ~cache ~specs
    | Request.Invalidate None ->
      Session.send session
        (Response.Invalidated { removed = Cache.clear ~dir:t.cfg.cache_dir });
      true
    | Request.Shutdown ->
      Session.send session Response.Bye;
      Mutex.lock t.mutex;
      t.stopping <- true;
      Condition.broadcast t.cond;
      Mutex.unlock t.mutex;
      true
  in
  if finished then finish_request t ~trace ~t0

(* A disconnecting session takes its queued jobs with it — but only its
   own: entries other sessions also wait on lose this session's waiters
   and, if they were parked in this session's queue, are re-homed onto a
   surviving waiter's queue. Running entries always finish. *)
let reap t session =
  (* Gate on [closed]: a send-failed session was already marked and the
     event loop may reap it more than once. *)
  if (not session.Session.closed) && Log.enabled t.cfg.obs.log Info then
    Log.log t.cfg.obs.log Info "session.close"
      [ ("session", Log.Int session.Session.id) ];
  Session.close session;
  Mutex.lock t.mutex;
  Hashtbl.iter
    (fun _ e ->
      e.e_waiters <-
        List.filter (fun w -> w.w_session != session) e.e_waiters)
    t.inflight;
  (match Hashtbl.find_opt t.queues session.Session.id with
   | None -> ()
   | Some q ->
     Queue.iter
       (fun e ->
         if e.e_state = `Queued then
           match e.e_waiters with
           | [] ->
             e.e_state <- `Cancelled;
             Hashtbl.remove t.inflight e.e_key
           | w :: _ ->
             Queue.push e (queue_for t w.w_session.Session.id))
       q;
     Hashtbl.remove t.queues session.Session.id);
  t.rr <- List.filter (fun sid -> sid <> session.Session.id) t.rr;
  Mutex.unlock t.mutex

(* --- Socket plumbing ------------------------------------------------------ *)

let bind_socket path =
  if String.length path > 100 then
    failwith
      (Printf.sprintf "socket path too long for AF_UNIX (%d chars): %s"
         (String.length path) path);
  (if Sys.file_exists path then begin
     (* A live daemon answers a connect; a stale file does not. *)
     let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     match Unix.connect probe (Unix.ADDR_UNIX path) with
     | () ->
       Unix.close probe;
       failwith (Printf.sprintf "a server is already listening on %s" path)
     | exception Unix.Unix_error _ ->
       Unix.close probe;
       (try Sys.remove path with Sys_error _ -> ())
   end);
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  Unix.listen fd 64;
  fd

let ignore_sigpipe () =
  (* A client vanishing mid-write must surface as EPIPE, not kill the
     daemon. *)
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ -> ()

let run ?runner cfg =
  ignore_sigpipe ();
  let listen_fd = bind_socket cfg.socket_path in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      cfg;
      runner;
      mutex = Mutex.create ();
      cond = Condition.create ();
      queues = Hashtbl.create 8;
      rr = [];
      inflight = Hashtbl.create 64;
      events = Queue.create ();
      wake_r;
      wake_w;
      stopping = false;
      submitted = 0;
      executed = 0;
      dedup_hits = 0;
      cache_hits = 0;
      running_count = 0;
      started_at = Unix.gettimeofday ();
      obs_on =
        (cfg.obs.metrics <> None || cfg.obs.spans <> None
         || Log.enabled cfg.obs.log Error);
      next_trace = 1;
      cur_trace = 0;
    }
  in
  if Log.enabled cfg.obs.log Info then
    Log.log cfg.obs.log Info "server.start"
      [
        ("socket", Log.Str cfg.socket_path);
        ("workers", Log.Int (max 1 cfg.workers));
        ("cache", Log.Bool cfg.cache);
      ];
  let workers =
    Array.init (max 1 cfg.workers) (fun i -> Domain.spawn (worker_loop t i))
  in
  (* Session.send tap: encode time, response count, bytes out. Runs on
     the event thread only, so [cur_trace] is the request (or batch)
     whose response is being written. *)
  let on_send =
    if cfg.obs.spans = None && cfg.obs.metrics = None then None
    else
      Some
        (fun ~bytes ~t0 ~dur ->
          span t ~name:"encode" ~track:0 ~trace:t.cur_trace ~t0 ~dur;
          match cfg.obs.metrics with
          | None -> ()
          | Some m ->
            m.Svc.responses <- m.Svc.responses + 1;
            m.Svc.bytes_out <- m.Svc.bytes_out + bytes;
            Hist.record (Svc.stage m "encode") dur)
  in
  let sessions : (Unix.file_descr, Session.t) Hashtbl.t = Hashtbl.create 8 in
  let next_session_id = ref 0 in
  let drain_wake () =
    let buf = Bytes.create 256 in
    let rec go () =
      match Unix.read t.wake_r buf 0 256 with
      | n when n > 0 -> go ()
      | _ -> ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()
    in
    go ()
  in
  let accept_client () =
    match Unix.accept listen_fd with
    | fd, _ ->
      let id = !next_session_id in
      incr next_session_id;
      let session = Session.create ?on_send ~id fd in
      Hashtbl.replace sessions fd session;
      if Log.enabled cfg.obs.log Info then
        Log.log cfg.obs.log Info "session.connect"
          [ ("session", Log.Int id) ];
      Mutex.lock t.mutex;
      ignore (queue_for t id);
      Mutex.unlock t.mutex
    | exception Unix.Unix_error _ -> ()
  in
  let read_client session =
    let buf = Bytes.create 65536 in
    match Unix.read session.Session.fd buf 0 65536 with
    | 0 -> reap t session
    | n ->
      (match cfg.obs.metrics with
       | Some m -> m.Svc.bytes_in <- m.Svc.bytes_in + n
       | None -> ());
      let n_sessions () = Hashtbl.length sessions in
      let lines, oversized =
        match Session.feed session (Bytes.sub_string buf 0 n) with
        | Ok lines -> (lines, false)
        | Error lines -> (lines, true)
      in
      List.iter
        (fun line ->
          if String.trim line <> "" then
            if not t.obs_on then
              (* The historical request path, byte for byte: no clock
                 reads, no trace ids, no allocation beyond decoding. *)
              match Request.of_line line with
              | Ok req ->
                handle_request t session ~sessions:(n_sessions ()) ~trace:0
                  ~t0:0. req
              | Error message ->
                Session.send session (Response.Error { message })
            else begin
              let t0 = Unix.gettimeofday () in
              let trace = t.next_trace in
              t.next_trace <- trace + 1;
              t.cur_trace <- trace;
              match Request.of_line line with
              | Ok req ->
                let d = Unix.gettimeofday () -. t0 in
                span t ~name:"decode" ~track:0 ~trace ~t0 ~dur:d;
                record_stage t "decode" d;
                handle_request t session ~sessions:(n_sessions ()) ~trace ~t0
                  req
              | Error message ->
                let d = Unix.gettimeofday () -. t0 in
                span t ~name:"decode" ~track:0 ~trace ~t0 ~dur:d;
                record_stage t "decode" d;
                (match cfg.obs.metrics with
                 | Some m -> m.Svc.decode_errors <- m.Svc.decode_errors + 1
                 | None -> ());
                if Log.enabled cfg.obs.log Warn then
                  Log.log cfg.obs.log Warn "request.decode_error"
                    [ ("trace", Log.Int trace); ("error", Log.Str message) ];
                Session.send session (Response.Error { message });
                finish_request t ~trace ~t0
            end)
        lines;
      if oversized then begin
        Session.send session
          (Response.Error
             {
               message =
                 Printf.sprintf "request line exceeds %d bytes"
                   Session.max_line_bytes;
             });
        reap t session
      end
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> reap t session
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  while not t.stopping do
    (* Reap sessions whose sends failed since last turn. *)
    Hashtbl.iter
      (fun _ s -> if s.Session.closed then reap t s)
      (Hashtbl.copy sessions);
    Hashtbl.iter
      (fun fd s -> if s.Session.closed then Hashtbl.remove sessions fd)
      (Hashtbl.copy sessions);
    let client_fds =
      Hashtbl.fold (fun fd _ acc -> fd :: acc) sessions []
    in
    let readable, _, _ =
      try Unix.select (listen_fd :: t.wake_r :: client_fds) [] [] 0.25
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        if fd = listen_fd then accept_client ()
        else if fd = t.wake_r then drain_wake ()
        else
          match Hashtbl.find_opt sessions fd with
          | Some session -> read_client session
          | None -> ())
      readable;
    drain_events t
  done;
  (* Graceful exit: workers finish the job in hand and see [stopping]. *)
  Mutex.lock t.mutex;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex;
  Array.iter Domain.join workers;
  drain_events t;
  if Log.enabled cfg.obs.log Info then
    Log.log cfg.obs.log Info "server.stop"
      [ ("uptime_s", Log.Float (Unix.gettimeofday () -. t.started_at)) ];
  Hashtbl.iter (fun _ s -> Session.close s) sessions;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (try Sys.remove cfg.socket_path with Sys_error _ -> ());
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  try Unix.close t.wake_w with Unix.Unix_error _ -> ()

(* --- Client --------------------------------------------------------------- *)

module Client = struct
  type t = {
    fd : Unix.file_descr;
    ic : in_channel;
    oc : out_channel;
    mutable closed : bool;
  }

  let connect path =
    ignore_sigpipe ();
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX path)
     with e ->
       Unix.close fd;
       raise e);
    {
      fd;
      ic = Unix.in_channel_of_descr fd;
      oc = Unix.out_channel_of_descr fd;
      closed = false;
    }

  let set_timeout t seconds =
    Unix.setsockopt_float t.fd Unix.SO_RCVTIMEO seconds

  let send t req =
    output_string t.oc (Request.to_line req);
    output_char t.oc '\n';
    flush t.oc

  let recv t =
    match input_line t.ic with
    | line -> Response.of_line line
    | exception End_of_file -> Error "connection closed"
    | exception Sys_error msg -> Error ("read failed: " ^ msg)

  let close t =
    if not t.closed then begin
      t.closed <- true;
      try Unix.close t.fd with Unix.Unix_error _ -> ()
    end
end

(* --- Embedding ------------------------------------------------------------ *)

type handle = { thread : Thread.t; socket_path : string }

let start ?runner cfg =
  let thread = Thread.create (fun () -> run ?runner cfg) () in
  (* Wait for the socket to accept; the server thread re-raises its own
     failures, so a dead thread surfaces as the timeout below. *)
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    match Client.connect cfg.socket_path with
    | client -> Client.close client
    | exception Unix.Unix_error _ ->
      if Unix.gettimeofday () > deadline then
        failwith
          (Printf.sprintf "server did not come up on %s" cfg.socket_path)
      else begin
        Thread.delay 0.02;
        wait ()
      end
  in
  wait ();
  { thread; socket_path = cfg.socket_path }

let stop handle =
  (match Client.connect handle.socket_path with
   | client ->
     (try
        Client.send client Request.Shutdown;
        ignore (Client.recv client)
      with _ -> ());
     Client.close client
   | exception Unix.Unix_error _ -> ());
  Thread.join handle.thread
