module Event_ring = Repro_util.Event_ring

type t = {
  cfg : Config.t;
  heap : Repro_mem.Page_store.t;
  mem_path : Mem_path.t;
  scratch : Trace.t; (* reusable per-warp emission trace *)
  stats : Stats.t;
  san : Repro_san.Checker.t option;
  tel : Telemetry.t option;
  mutable timeline : Stats.t list; (* per-launch deltas, newest first *)
  mutable windows : Stats.t array list; (* per-launch window rows, newest first *)
  mutable spans : Telemetry.kernel_span list; (* newest first *)
  mutable launches : int;
  mutable sealed_streams : int; (* interning tallies, cumulative *)
  mutable unique_streams : int;
  mutable sealed_stream_instrs : int;
  mutable unique_stream_instrs : int;
  mutable keep_traces : bool;
  mutable kept : Trace.t array list; (* retained launches, newest first *)
}

let fmax (a : float) (b : float) = if a >= b then a else b

let create ?(config = Config.default) ?san ?telemetry ~heap () =
  Config.validate config;
  let tel =
    match telemetry with
    | Some c when Telemetry.config_enabled c -> Some (Telemetry.create c)
    | Some _ | None -> None
  in
  {
    cfg = config;
    heap;
    mem_path = Mem_path.create config;
    scratch = Trace.create ~capacity:256 ();
    stats = Stats.create ();
    san;
    tel;
    timeline = [];
    windows = [];
    spans = [];
    launches = 0;
    sealed_streams = 0;
    unique_streams = 0;
    sealed_stream_instrs = 0;
    unique_stream_instrs = 0;
    keep_traces = false;
    kept = [];
  }

let config t = t.cfg

let heap t = t.heap

let set_vm t vm = Mem_path.set_vm t.mem_path vm

let vm t = Mem_path.vm t.mem_path

let launch t ~n_threads kernel =
  if n_threads <= 0 then invalid_arg "Device.launch: n_threads must be positive";
  let warp_size = t.cfg.Config.warp_size in
  let n_warps = Repro_util.Mathx.ceil_div n_threads warp_size in
  (* Every warp emits into the device's scratch trace, then seals
     through a per-launch pool that hash-conses identical instruction
     streams (addresses stay per-warp). *)
  let pool = Trace.Intern.create () in
  let traces =
    Array.init n_warps (fun warp_id ->
        let first = warp_id * warp_size in
        let width = min warp_size (n_threads - first) in
        let lanes = Array.init width (fun lane -> first + lane) in
        Trace.reset t.scratch;
        let ctx =
          Warp_ctx.create ?san:t.san ~trace:t.scratch ~heap:t.heap ~warp_id
            ~lanes ()
        in
        kernel ctx;
        Trace.Intern.seal pool t.scratch)
  in
  t.sealed_streams <- t.sealed_streams + Trace.Intern.sealed pool;
  t.unique_streams <- t.unique_streams + Trace.Intern.unique pool;
  t.sealed_stream_instrs <-
    t.sealed_stream_instrs + Trace.Intern.sealed_instrs pool;
  t.unique_stream_instrs <-
    t.unique_stream_instrs + Trace.Intern.unique_instrs pool;
  (* Each launch counts into its own [Stats.t] which is then folded into
     the cumulative totals, so the per-kernel deltas of [kernel_timeline]
     sum (bit-for-bit, including the float counters) to [stats]. *)
  let launch_stats = Stats.create () in
  let san_delta () =
    (* Sanitizer violations detected during this launch's functional
       phase belong to this launch's delta, keeping the
       timeline-sums-to-totals invariant intact. *)
    match t.san with
    | None -> ()
    | Some san ->
      Stats.count_san_violations launch_stats
        (Repro_san.Checker.take_kernel_delta san)
  in
  (* Launches concatenate on one absolute time axis whose origin is the
     cumulative cycle count so far. *)
  let base = Stats.cycles t.stats in
  let ring, sampler =
    match t.tel with
    | Some tel -> (tel.Telemetry.ring, tel.Telemetry.sampler)
    | None -> (None, None)
  in
  Option.iter (fun ring -> Event_ring.begin_launch ring ~base) ring;
  Option.iter Telemetry.Sampler.begin_launch sampler;
  let cycles =
    Sm.run ?telemetry:t.tel t.cfg t.mem_path ~stats:launch_stats ~traces
  in
  Option.iter
    (fun ring ->
      (* The span covers trailing write-through DRAM drain the ring may
         have recorded past the last warp's retirement. *)
      let dur = fmax cycles (Event_ring.max_end ring -. base) in
      t.spans <- { Telemetry.index = t.launches; start = base; dur } :: t.spans)
    ring;
  (match sampler with
   | None ->
     (* Counters went straight into [launch_stats]. *)
     Stats.add_cycles launch_stats cycles;
     san_delta ();
     Option.iter
       (fun ring ->
         Stats.count_trace_dropped launch_stats (Event_ring.take_dropped ring))
       ring
   | Some sampler ->
     (* Windowed: the engine counted into per-window rows. Fold them in
        order into the launch delta — the identical association a plain
        run performs, so totals (cycles included, see
        [Sampler.finish_launch]) match a telemetry-off run bit-for-bit
        on every integer counter and on cycles. Launch-scoped counts with
        no cycle of their own (sanitizer delta, ring drops) land in the
        last window. *)
     Telemetry.Sampler.finish_launch sampler ~cycles;
     let rows = Telemetry.Sampler.take sampler in
     let last = rows.(Array.length rows - 1) in
     (match t.san with
      | None -> ()
      | Some san ->
        Stats.count_san_violations last (Repro_san.Checker.take_kernel_delta san));
     Option.iter
       (fun ring -> Stats.count_trace_dropped last (Event_ring.take_dropped ring))
       ring;
     Array.iter (fun row -> Stats.add launch_stats row) rows;
     t.windows <- rows :: t.windows);
  Stats.add t.stats launch_stats;
  t.timeline <- launch_stats :: t.timeline;
  t.launches <- t.launches + 1;
  if t.keep_traces then t.kept <- traces :: t.kept

let retain_traces t keep =
  t.keep_traces <- keep;
  if not keep then t.kept <- []

let retained_traces t = List.rev t.kept

let stats t = t.stats

let kernel_timeline t = List.rev t.timeline

let window_timeline t = List.rev t.windows

let sample_window t =
  match t.tel with
  | Some { Telemetry.sampler = Some s; _ } -> Some (Telemetry.Sampler.window s)
  | Some _ | None -> None

let telemetry_dump t =
  match t.tel with
  | Some ({ Telemetry.ring = Some ring; _ } as tel) ->
    Some
      {
        Telemetry.n_sms = t.cfg.Config.n_sms;
        window =
          (match tel.Telemetry.sampler with
           | Some s -> Telemetry.Sampler.window s
           | None -> 0);
        events = Event_ring.events ring;
        kernels = List.rev t.spans;
        dropped = Event_ring.all_dropped ring;
      }
  | Some _ | None -> None

let interning_tallies t =
  (t.sealed_streams, t.unique_streams, t.sealed_stream_instrs,
   t.unique_stream_instrs)

let dedup_ratio t =
  if t.unique_streams = 0 then 1.
  else float_of_int t.sealed_streams /. float_of_int t.unique_streams

let reset_stats t =
  Stats.reset t.stats;
  Mem_path.reset t.mem_path;
  t.sealed_streams <- 0;
  t.unique_streams <- 0;
  t.sealed_stream_instrs <- 0;
  t.unique_stream_instrs <- 0;
  t.timeline <- [];
  t.windows <- [];
  t.spans <- [];
  t.launches <- 0;
  t.kept <- [];
  match t.tel with
  | Some { Telemetry.ring = Some ring; _ } -> Event_ring.clear ring
  | Some _ | None -> ()

let launches t = t.launches
