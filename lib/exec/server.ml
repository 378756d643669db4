module W = Repro_workloads
module Log = Repro_obs.Log
module Hist = Repro_obs.Hist
module Svc = Repro_obs.Svc_metrics
module Tracer = Repro_obs.Tracer
module Event_ring = Repro_util.Event_ring

type obs = {
  log : Log.t;
  clock : unit -> float;
  spans : Event_ring.t option;
  slow_s : float;
}

let obs_off =
  { log = Log.null; clock = Svc.null_clock; spans = None; slow_s = infinity }

let obs_default ?(log = Log.null) ?(slow_s = 0.25) ?(trace_capacity = 4096) ()
    =
  if trace_capacity < 0 then
    invalid_arg
      (Printf.sprintf "trace capacity must be >= 0, got %d" trace_capacity);
  {
    log;
    clock = Unix.gettimeofday;
    spans =
      (if trace_capacity > 0 then
         Some (Event_ring.create ~capacity:trace_capacity)
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

type job_runner = Job.t -> (W.Harness.run, string) result

(* --- Scheduler state ------------------------------------------------------

   Guarded by [mutex]; workers and the event thread are the only
   parties. Waiter lists reference sessions, but workers never touch
   them — they snapshot the list under the lock and ship it to the event
   thread inside an event, together with their stage timings. *)

type waiter = {
  w_session : Session.t;
  w_batch : Session.batch;
  w_index : int;
  w_deduped : bool;
  w_attached_at : float;  (* dedup_wait span start *)
}

type entry = {
  e_key : string;
  e_job : Job.t;
  e_cache : bool;
  e_trace : int;          (* trace id of the creating submit request *)
  e_enqueued_at : float;  (* queued span start *)
  mutable e_state : [ `Queued | `Running | `Done | `Cancelled ];
  mutable e_waiters : waiter list;  (* newest first *)
}

type event =
  | Started of waiter list
  | Finished of {
      entry : entry;
      waiters : waiter list;
      track : int;  (* the worker's span track *)
      stages : (Svc.stage * float * float) list;
          (* queued, cache_probe, run as the worker timed them: stage,
             start on the obs clock, duration *)
      outcome : string Executor.outcome_of;  (* the run as wire text *)
      busy_s : float;
    }

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
  mutable running_count : int;
  started_at : float;
  metrics : Svc.t;
  (* Trace ids are assigned by the event thread only; [cur_trace] is the
     request it is currently servicing (attributes encode spans in
     [send]). *)
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

   One path whether observability is on or off: with it off the clock is
   [Svc.null_clock] (every duration is 0, no syscall), there is no span
   ring and the log is [Log.null]. Span timestamps ride the ring in
   seconds relative to server start; a span's kind is its stage index.
   The event thread is the only writer of spans, stage histograms and
   service counters — workers time their stages and hand the timings
   over inside [Finished] — so neither the ring nor the metrics take a
   lock. *)

let now t = t.cfg.obs.clock ()

let stage t s ~track ~trace ~t0 ~dur =
  (match t.cfg.obs.spans with
   | None -> ()
   | Some ring ->
     Event_ring.record ring ~kind:(Svc.stage_index s) ~track ~a:trace ~b:0
       ~ts:(t0 -. t.started_at) ~dur);
  Hist.record (Svc.stage_hist t.metrics s) dur

(* Close the books on one request line: the end-to-end span, the
   "request" histogram — whose count therefore equals request lines
   served — and the slow-request log. Fires at the terminal response
   only: synchronous requests at the end of [handle_request], a submit
   at its [Batch_done]. *)
let finish_request t ~trace ~t0 =
  let dur = now t -. t0 in
  stage t Svc.Request ~track:0 ~trace ~t0 ~dur;
  Svc.incr t.metrics Svc.requests;
  if dur >= t.cfg.obs.slow_s then begin
    Svc.incr t.metrics Svc.slow_requests;
    if Log.enabled t.cfg.obs.log Warn then
      Log.log t.cfg.obs.log Warn "request.slow"
        [ ("trace", Log.Int trace); ("dur_s", Log.Float dur) ]
  end

(* Build and write one response line; the encode stage (building the
   line), response count and bytes out are charged to [cur_trace]. Event
   thread only. *)
let send_line t session build =
  if not session.Session.closed then begin
    let t0 = now t in
    let line = build () in
    let dur = now t -. t0 in
    Session.send session line;
    if not session.Session.closed then begin
      stage t Svc.Encode ~track:0 ~trace:t.cur_trace ~t0 ~dur;
      Svc.incr t.metrics Svc.responses;
      Svc.add t.metrics Svc.bytes_out (String.length line + 1)
    end
  end

let send t session response =
  send_line t session (fun () -> Response.to_line response)

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

let log_job_done t ~trace (o : _ Executor.outcome_of) =
  if Log.enabled t.cfg.obs.log Info then
    Log.log t.cfg.obs.log Info "job.done"
      [
        ("trace", Log.Int trace);
        ("job", Log.Str (Job.label o.Executor.job));
        ("wall_s", Log.Float o.Executor.wall_s);
        ("cached", Log.Bool o.Executor.cached);
      ]

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
      let m0 = now t in
      push_event t (Started e.e_waiters);
      Mutex.unlock t.mutex;
      let queued = (Svc.Queued, e.e_enqueued_at, m0 -. e.e_enqueued_at) in
      let outcome, stages =
        Executor.measure ?runner:t.runner ~clock:t.cfg.obs.clock
          ~cache:e.e_cache ~dir:t.cfg.cache_dir e.e_job
      in
      log_job_done t ~trace:e.e_trace outcome;
      let busy_s = now t -. m0 in
      Mutex.lock t.mutex;
      e.e_state <- `Done;
      t.running_count <- t.running_count - 1;
      Hashtbl.remove t.inflight e.e_key;
      push_event t
        (Finished
           { entry = e; waiters = e.e_waiters; track; stages = queued :: stages;
             outcome; busy_s });
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
    if w.w_deduped then
      stage t Svc.Dedup_wait ~track:0 ~trace:w.w_batch.Session.trace
        ~t0:w.w_attached_at ~dur:(now t -. w.w_attached_at);
    (* The run rides as the wire text the worker handed over: spliced,
       never decoded or re-encoded. *)
    send_line t w.w_session (fun () ->
        Response.job_done_line ~id:w.w_batch.Session.batch_id
          ~index:w.w_index outcome);
    if Session.record_done w.w_session w.w_batch outcome then begin
      send t w.w_session
        (Response.batch_done ~id:w.w_batch.Session.batch_id
           w.w_batch.Session.summary);
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
              t.cur_trace <- w.w_batch.Session.trace;
              send t w.w_session
                (Response.Running
                   { id = w.w_batch.Session.batch_id; index = w.w_index })
            end)
          waiters
      | Finished { entry = e; waiters; track; stages; outcome = exec_outcome;
                   busy_s } ->
        List.iter
          (fun (s, t0, dur) -> stage t s ~track ~trace:e.e_trace ~t0 ~dur)
          stages;
        let m = t.metrics in
        if exec_outcome.Executor.cached then Svc.incr m Svc.cache_hits
        else begin
          Svc.incr m Svc.jobs_executed;
          if e.e_cache then Svc.incr m Svc.cache_misses
        end;
        Svc.add_float m Svc.worker_busy_s busy_s;
        List.iter
          (fun w ->
            t.cur_trace <- w.w_batch.Session.trace;
            finish_job t w
              (Response.outcome_of_executor ~deduped:w.w_deduped exec_outcome))
          waiters)
    pending

let queued t =
  Hashtbl.fold
    (fun _ e n -> if e.e_state = `Queued then n + 1 else n)
    t.inflight 0

(* The one place that asks whether observability is on: under the null
   clock the stats answer keeps its pre-observability wire form. *)
let server_stats t ~sessions =
  let m = t.metrics in
  Svc.set m Svc.sessions sessions;
  Mutex.lock t.mutex;
  Svc.set m Svc.queue_depth (queued t);
  Svc.set m Svc.inflight (Hashtbl.length t.inflight);
  Svc.set m Svc.jobs_running t.running_count;
  Mutex.unlock t.mutex;
  let snap = Svc.snapshot m in
  let reported = t.cfg.obs.clock != Svc.null_clock in
  let stages =
    if reported then
      List.map (fun n -> (n, Hist.copy (Svc.stage m n))) Svc.stage_names
    else []
  in
  let get metric = Svc.count metric snap in
  {
    Response.sessions;
    submitted = get Svc.jobs_submitted;
    executed = get Svc.jobs_executed;
    dedup_hits = get Svc.dedup_hits;
    cache_hits = get Svc.cache_hits;
    queued = get Svc.queue_depth;
    running = get Svc.jobs_running;
    uptime_s = Unix.gettimeofday () -. t.started_at;
    svc = (if reported then Some snap else None);
    stages;
  }

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
    send t session (Response.Error { message });
    true
  | None ->
    let jobs = List.map (function Ok j -> j | Error _ -> assert false) resolved in
    let total = List.length jobs in
    send t session (Response.Ack { id; jobs = total });
    if total = 0 then begin
      send t session (Response.batch_done ~id Response.no_jobs);
      true
    end
    else begin
      let batch = Session.begin_batch session ~id ~total in
      batch.Session.trace <- trace;
      batch.Session.started_at <- t0;
      Svc.add t.metrics Svc.jobs_submitted total;
      (* Hits are answered here, in the turn that reads them: no queue,
         no worker, no [running] line. Only misses go on to the
         scheduler. The worker probes again ({!Executor.measure}): another
         daemon or a sweep sharing the directory may store the entry
         before the job starts. *)
      let probe = t.cfg.cache && cache in
      let answered (index, job) =
        probe
        &&
        let p0 = now t in
        let stored = Cache.lookup_text ~dir:t.cfg.cache_dir job in
        stage t Svc.Cache_probe ~track:0 ~trace ~t0:p0 ~dur:(now t -. p0);
        match stored with
        | None -> false
        | Some text ->
          let outcome = Executor.hit job text in
          Svc.incr t.metrics Svc.cache_hits;
          log_job_done t ~trace outcome;
          finish_job t
            { w_session = session; w_batch = batch; w_index = index;
              w_deduped = false; w_attached_at = p0 }
            (Response.outcome_of_executor outcome);
          true
      in
      let misses =
        List.mapi (fun index job -> (index, job)) jobs
        |> List.filter (fun ij -> not (answered ij))
      in
      let enq = now t in
      let announce_running = ref [] in
      Mutex.lock t.mutex;
      List.iter
        (fun (index, job) ->
          let key = Job.key job in
          match Hashtbl.find_opt t.inflight key with
          | Some e when e.e_state = `Queued || e.e_state = `Running ->
            let w =
              { w_session = session; w_batch = batch; w_index = index;
                w_deduped = true; w_attached_at = enq }
            in
            e.e_waiters <- w :: e.e_waiters;
            Svc.incr t.metrics Svc.dedup_hits;
            (* A dedup hit on a cache-enabled entry is exactly a
               stampede avoided: without the in-flight table this
               submission would race the cold cache. *)
            if e.e_cache then Svc.incr t.metrics Svc.stampede_avoided;
            if e.e_state = `Running then
              announce_running := (id, index) :: !announce_running
          | _ ->
            let e =
              {
                e_key = key;
                e_job = job;
                e_cache = probe;
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
        misses;
      Mutex.unlock t.mutex;
      (* Late joiners to an already-running execution get their Running
         notice immediately (the Started event fired before they attached). *)
      List.iter
        (fun (id, index) ->
          send t session (Response.Running { id; index }))
        (List.rev !announce_running);
      false
    end

let handle_request t session ~sessions ~trace ~t0 req =
  let finished =
    match req with
    | Request.Ping ->
      send t session Response.Pong;
      true
    | Request.Stats ->
      send t session (Response.Server_stats (server_stats t ~sessions));
      true
    | Request.Health ->
      Mutex.lock t.mutex;
      let queued = queued t in
      let running = t.running_count in
      Mutex.unlock t.mutex;
      send t session
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
         send t session
           (Response.Error { message = "tracing is disabled on this server" })
       | Some ring ->
         let tracks =
           (0, "events")
           :: List.init (max 1 t.cfg.workers) (fun i ->
                  (i + 1, Printf.sprintf "worker %d" (i + 1)))
         in
         let describe (e : Event_ring.event) =
           ( Svc.stage_name e.kind,
             e.track,
             [ ("trace", Repro_obs.Json.Int e.arg_a) ] )
         in
         send t session
           (Response.Trace_dump
              {
                spans = Event_ring.length ring;
                dropped = Event_ring.all_dropped ring;
                trace =
                  Tracer.chrome ~tracks ~describe ~scale:1e6
                    ~meta:[ ("displayTimeUnit", Repro_obs.Json.String "ms") ]
                    (Event_ring.events ring);
              }));
      true
    | Request.Query spec ->
      (match Request.Spec.resolve spec with
       | Error message -> send t session (Response.Error { message })
       | Ok job ->
         let run =
           if t.cfg.cache then Cache.lookup_text ~dir:t.cfg.cache_dir job
           else None
         in
         send_line t session (fun () -> Response.queried_line run));
      true
    | Request.Invalidate (Some spec) ->
      (match Request.Spec.resolve spec with
       | Error message -> send t session (Response.Error { message })
       | Ok job ->
         let removed =
           if Cache.invalidate ~dir:t.cfg.cache_dir job then 1 else 0
         in
         send t session (Response.Invalidated { removed }));
      true
    | Request.Submit { id; cache; specs } ->
      if t.stopping then begin
        send t session
          (Response.Error { message = "server is shutting down" });
        true
      end
      else handle_submit t session ~trace ~t0 ~id ~cache ~specs
    | Request.Invalidate None ->
      send t session
        (Response.Invalidated { removed = Cache.clear ~dir:t.cfg.cache_dir });
      true
    | Request.Shutdown ->
      send t session Response.Bye;
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
      running_count = 0;
      started_at = Unix.gettimeofday ();
      metrics = Svc.create ();
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
    Array.init (max 1 cfg.workers) (fun i -> Repro_util.Pool.spawn (worker_loop t i))
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
      let session = Session.create ~id fd in
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
      Svc.add t.metrics Svc.bytes_in n;
      let lines, oversized =
        match Session.feed session (Bytes.sub_string buf 0 n) with
        | Ok lines -> (lines, false)
        | Error lines -> (lines, true)
      in
      List.iter
        (fun line ->
          if String.trim line <> "" then begin
            let t0 = now t in
            let trace = t.next_trace in
            t.next_trace <- trace + 1;
            t.cur_trace <- trace;
            let req = Request.of_line line in
            stage t Svc.Decode ~track:0 ~trace ~t0 ~dur:(now t -. t0);
            match req with
            | Ok req ->
              handle_request t session ~sessions:(Hashtbl.length sessions)
                ~trace ~t0 req
            | Error message ->
              Svc.incr t.metrics Svc.decode_errors;
              if Log.enabled cfg.obs.log Warn then
                Log.log cfg.obs.log Warn "request.decode_error"
                  [ ("trace", Log.Int trace); ("error", Log.Str message) ];
              send t session (Response.Error { message });
              finish_request t ~trace ~t0
          end)
        lines;
      if oversized then begin
        send t session
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
    (* Reap sessions closed since last turn (EOF, or a failed send). *)
    Hashtbl.fold
      (fun fd s acc -> if s.Session.closed then (fd, s) :: acc else acc)
      sessions []
    |> List.iter (fun (fd, s) ->
           reap t s;
           Hashtbl.remove sessions fd);
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
  Array.iter Repro_util.Pool.join workers;
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

  let lost msg = Error ("server connection lost: " ^ msg)

  (* A daemon that dropped the connection fails the write (EPIPE, as
     [connect] ignores SIGPIPE) or the read that follows it. *)
  let call t req =
    match send t req with
    | () -> ( match recv t with Error msg -> lost msg | reply -> reply)
    | exception Sys_error msg -> lost msg

  let submit ?(on_running = fun _ _ -> ()) ?(cache = true) t ~id specs =
    let by_index = Array.of_list specs in
    let n = Array.length by_index in
    let outcomes = Array.make n None in
    let mine bid index = bid = id && 0 <= index && index < n in
    let rec loop () =
      match recv t with
      | Error msg -> lost msg
      | Ok (Response.Error { message }) ->
        Error ("server rejected the batch: " ^ message)
      | Ok (Running { id = bid; index }) when mine bid index ->
        on_running index by_index.(index);
        loop ()
      | Ok (Job_done { id = bid; index; outcome }) when mine bid index ->
        outcomes.(index) <- Some outcome;
        loop ()
      | Ok (Batch_done { id = bid; jobs; measured; cached; deduped; failed;
                         wall_s }) when bid = id ->
        let got = List.filter_map Fun.id (Array.to_list outcomes) in
        if List.length got = n then
          Ok (got, { Response.jobs; measured; cached; deduped; failed; wall_s })
        else
          Error
            (Printf.sprintf "server sent %d of %d results" (List.length got) n)
      | Ok _ -> loop ()
    in
    match send t (Request.Submit { id; cache; specs }) with
    | () -> loop ()
    | exception Sys_error msg -> lost msg

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
