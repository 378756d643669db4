module Event_ring = Repro_util.Event_ring
module Feed = Repro_util.Pool.Feed
module Helper = Repro_util.Pool.Helper

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
  mutable helper : Helper.t option; (* replays this device's launches *)
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
    helper = None;
  }

let config t = t.cfg

(* Replay state (counters, timelines, the ring, the memory path) is
   read or replaced only after queued replays finish. *)
let drain t = Option.iter Helper.drain t.helper

let heap t = t.heap

let set_vm t vm =
  drain t;
  Mem_path.set_vm t.mem_path vm

let vm t = Mem_path.vm t.mem_path

(* The consumer half of a launch: replay, the ring span, the sampler
   fold, the totals and the timeline, in launch order. With a [feed], it
   runs on the scope's helper while the caller still emits, and waits
   for each warp before reading its trace; [delta] (the sanitizer's
   count for the launch) is set when emission ends. *)
let replay t ?feed ~traces ~delta () =
  (* Each launch counts into its own [Stats.t] which is then folded into
     the cumulative totals, so the per-kernel deltas of [kernel_timeline]
     sum (bit-for-bit, including the float counters) to [stats]. *)
  let launch_stats = Stats.create () in
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
  let await = Option.map Feed.await feed in
  let cycles =
    Sm.run ?telemetry:t.tel ?await t.cfg t.mem_path ~stats:launch_stats ~traces
  in
  (* Past the last warp: emission is over and [delta] is set. *)
  Option.iter (fun f -> Feed.await f (Array.length traces)) feed;
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
     Option.iter (Stats.count_san_violations launch_stats) !delta;
     Option.iter
       (fun ring ->
         Stats.bump launch_stats Stats.Counter.trace_dropped
           (Event_ring.take_dropped ring))
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
     Option.iter (Stats.count_san_violations last) !delta;
     Option.iter
       (fun ring ->
         Stats.bump last Stats.Counter.trace_dropped (Event_ring.take_dropped ring))
       ring;
     Array.iter (fun row -> Stats.add launch_stats row) rows;
     t.windows <- rows :: t.windows);
  Stats.add t.stats launch_stats;
  t.timeline <- launch_stats :: t.timeline;
  t.launches <- t.launches + 1

let unsealed = Trace.create ~capacity:0 ()

let launch t ~n_threads kernel =
  if n_threads <= 0 then invalid_arg "Device.launch: n_threads must be positive";
  let warp_size = t.cfg.Config.warp_size in
  let n_warps = Repro_util.Mathx.ceil_div n_threads warp_size in
  let traces = Array.make n_warps unsealed in
  let delta = ref None in
  (* Inside a helper scope with a free core, replay is queued before the
     first warp is emitted and follows emission warp by warp. *)
  let feed =
    match Helper.current () with
    | None -> None
    | Some h ->
      let feed = Feed.create () in
      Helper.submit h (replay t ~feed ~traces ~delta);
      t.helper <- Some h;
      Some feed
  in
  (* Every warp emits into the device's scratch trace, then seals
     through a per-launch pool that hash-conses identical instruction
     streams (addresses stay per-warp). *)
  let pool = Trace.Intern.create () in
  (try
     for warp_id = 0 to n_warps - 1 do
       let first = warp_id * warp_size in
       let width = min warp_size (n_threads - first) in
       let lanes = Array.init width (fun lane -> first + lane) in
       Trace.reset t.scratch;
       let ctx =
         Warp_ctx.create ?san:t.san ~trace:t.scratch ~heap:t.heap ~warp_id
           ~lanes ()
       in
       kernel ctx;
       traces.(warp_id) <- Trace.Intern.seal pool t.scratch;
       Option.iter (fun f -> Feed.publish f (warp_id + 1)) feed
     done
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     Option.iter Feed.abort feed;
     Printexc.raise_with_backtrace e bt);
  t.sealed_streams <- t.sealed_streams + Trace.Intern.sealed pool;
  t.unique_streams <- t.unique_streams + Trace.Intern.unique pool;
  t.sealed_stream_instrs <-
    t.sealed_stream_instrs + Trace.Intern.sealed_instrs pool;
  t.unique_stream_instrs <-
    t.unique_stream_instrs + Trace.Intern.unique_instrs pool;
  (* Sanitizer violations detected during this launch's functional
     phase belong to this launch's delta, keeping the
     timeline-sums-to-totals invariant intact. *)
  delta := Option.map Repro_san.Checker.take_kernel_delta t.san;
  if t.keep_traces then t.kept <- traces :: t.kept;
  match feed with
  | Some f -> Feed.publish f (n_warps + 1)
  | None -> replay t ~traces ~delta ()

let retain_traces t keep =
  t.keep_traces <- keep;
  if not keep then t.kept <- []

let retained_traces t = List.rev t.kept

let stats t =
  drain t;
  t.stats

let kernel_timeline t =
  drain t;
  List.rev t.timeline

let window_timeline t =
  drain t;
  List.rev t.windows

let sample_window t =
  match t.tel with
  | Some { Telemetry.sampler = Some s; _ } -> Some (Telemetry.Sampler.window s)
  | Some _ | None -> None

let telemetry_dump t =
  drain t;
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
  drain t;
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

let launches t =
  drain t;
  t.launches
