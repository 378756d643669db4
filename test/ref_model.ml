(* A deliberately naive reference implementation of the timing model, for
   differential tests of [Sm.run].

   It is written from the contract in DESIGN.md §4, not from the replay
   loop, and shares none of the loop's helpers: the ready queue is a
   sorted list, every cache and TLB set is an MRU-first list, the
   coalescer is a dedup-and-sort over the lane addresses the test
   generated (the trace's sector arena, written by the production
   coalescer at emission, is never read), and the page table's spans are
   searched linearly. There are no mailboxes, no
   precomputed cost tables and no unchecked array access. Speed is not a
   goal; only the arithmetic has to match, bit for bit.

   Counters go through the ordinary [Stats] counting calls, one event at
   a time, and telemetry is modelled directly: a window row is opened
   whenever a popped event's time reaches the next window boundary, and
   every recorded event is kept in a list. *)

module Config = Repro_gpu.Config
module Label = Repro_gpu.Label
module Stats = Repro_gpu.Stats
module K = Stats.Counter
module Trace = Repro_gpu.Trace
module Telemetry = Repro_gpu.Telemetry
module Event_ring = Repro_util.Event_ring
module Page_table = Repro_vm.Page_table
module Vm = Repro_vm.Vm

(* --- set-associative LRU state, as lists ------------------------------ *)

(* A sectored cache: per set, the resident lines most-recently-used
   first, each with the list of its valid sectors. *)
type cache = {
  sets : (int * int list) list array;
  ways : int;
  sectors_per_line : int;
}

let cache ~size_bytes ~line_bytes ~ways =
  {
    sets = Array.make (size_bytes / (line_bytes * ways)) [];
    ways;
    sectors_per_line = line_bytes / 32;
  }

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: rest -> x :: take (n - 1) rest

(* Touch [sector]: true when it was valid. A resident line moves to the
   front and gains the sector; an absent line is installed at the front
   with only that sector, and the set keeps its [ways] most recent
   lines. *)
let cache_access c sector =
  let line = sector / c.sectors_per_line in
  let set = line mod Array.length c.sets in
  let lines = c.sets.(set) in
  match List.assoc_opt line lines with
  | Some valid ->
    let rest = List.remove_assoc line lines in
    let hit = List.mem sector valid in
    c.sets.(set) <- (line, if hit then valid else sector :: valid) :: rest;
    hit
  | None ->
    c.sets.(set) <- take c.ways ((line, [ sector ]) :: lines);
    false

let cache_probe c sector =
  let line = sector / c.sectors_per_line in
  match List.assoc_opt line c.sets.(line mod Array.length c.sets) with
  | Some valid -> List.mem sector valid
  | None -> false

let cache_flush c = Array.fill c.sets 0 (Array.length c.sets) []

(* A TLB level: per set, the resident page keys most-recent first. *)
type tlb = { tsets : int list array; tways : int }

let tlb ~sets ~ways = { tsets = Array.make sets []; tways = ways }

let tlb_access t key =
  let set = key mod Array.length t.tsets in
  let keys = t.tsets.(set) in
  let hit = List.mem key keys in
  t.tsets.(set) <-
    (if hit then key :: List.filter (fun k -> k <> key) keys
     else take t.tways (key :: keys));
  hit

let tlb_probe t key = List.mem key t.tsets.(key mod Array.length t.tsets)

let tlb_flush t = Array.fill t.tsets 0 (Array.length t.tsets) []

(* --- the machine ------------------------------------------------------- *)

type xlat = {
  table : Page_table.t;
  vcfg : Vm.config;
  l1_tlbs : tlb array;
  l2_tlb : tlb;
}

type t = {
  cfg : Config.t;
  l1s : cache array;
  l2 : cache;
  xlat : xlat option;
}

type event = Event_ring.event
(* Absolute start times, as [Event_ring.events] reports them. *)

(* A cold machine. [vm] is the page table and TLB configuration to
   translate through, or [None] for untranslated replay. *)
let create ~vm (cfg : Config.t) =
  let l1g = cfg.Config.l1_geometry and l2g = cfg.Config.l2_geometry in
  {
    cfg;
    l1s =
      Array.init cfg.Config.n_sms (fun _ ->
          cache ~size_bytes:l1g.size_bytes ~line_bytes:l1g.line_bytes
            ~ways:l1g.ways);
    l2 =
      cache ~size_bytes:l2g.size_bytes ~line_bytes:l2g.line_bytes
        ~ways:l2g.ways;
    xlat =
      Option.map
        (fun (table, (vcfg : Vm.config)) ->
          {
            table;
            vcfg;
            l1_tlbs =
              Array.init cfg.Config.n_sms (fun _ ->
                  tlb ~sets:vcfg.l1_sets ~ways:vcfg.l1_ways);
            l2_tlb = tlb ~sets:vcfg.l2_sets ~ways:vcfg.l2_ways;
          })
        vm;
  }

type outcome = L1_hit | L2_hit | Walk of int (* levels *)

(* Translate one sector on [sm]: the span holding it (linear search),
   then the SM's L1 TLB and the L2 TLB on the span-relative page key.
   Returns the outcome and the cycles it costs; an unmapped sector walks
   the full depth and is never cached. *)
let translate x ~sm sector =
  let sbase = Page_table.Raw.sbase x.table
  and slimit = Page_table.Raw.slimit x.table in
  let span = ref (-1) in
  Array.iteri
    (fun i b -> if !span < 0 && sector >= b && sector < slimit.(i) then span := i)
    sbase;
  let walk levels =
    ( Walk levels,
      x.vcfg.l2_latency
      +. (float_of_int levels *. x.vcfg.walk_latency_per_level) )
  in
  if !span < 0 then walk Page_table.max_levels
  else begin
    let i = !span in
    let page = (sector - sbase.(i)) lsr (Page_table.Raw.shift x.table).(i) in
    let key = (i lsl Page_table.span_key_shift) lor page in
    if tlb_access x.l1_tlbs.(sm) key then (L1_hit, 0.)
    else if tlb_access x.l2_tlb key then (L2_hit, x.vcfg.l2_latency)
    else walk (Page_table.Raw.levels x.table).(i)
  end

(* Distinct 32 B sectors of a warp's lane addresses, ascending. *)
let coalesce addrs =
  List.sort_uniq compare
    (List.map (fun a -> Repro_mem.Vaddr.strip a / 32) addrs)

(* Replay one launch of at least one warp. [lanes.(w)] lists the lane
   addresses of warp [w]'s memory records in record order; only the
   other columns are read from [traces.(w)]. With [window], counters go
   to per-window rows (returned, each assigned its duration); otherwise
   into [stats]. Recorded events carry absolute times from [base]. *)
let launch m ~window ~base ~stats ~lanes traces =
  if Array.length traces = 0 then
    invalid_arg "Ref_model.launch: no warps";
  if Array.length lanes <> Array.length traces then
    invalid_arg "Ref_model.launch: one lane list per warp";
  let lanes = Array.copy lanes in
  let cfg = m.cfg in
  let n_sms = cfg.Config.n_sms in
  Array.iter cache_flush m.l1s;
  Option.iter (fun x -> Array.iter tlb_flush x.l1_tlbs) m.xlat;
  let issue_clock = Array.make n_sms 0. in
  let lsu_free = Array.make n_sms 0. in
  let l1_free = Array.make n_sms 0. in
  let l2_free = ref 0. and dram_free = ref 0. in
  let events = ref [] in
  let record kind track a b ts dur =
    events :=
      { Event_ring.kind; track; arg_a = a; arg_b = b; ts = base +. ts; dur }
      :: !events
  in
  (* Window rows, newest first. *)
  let rows = ref [ Stats.create () ] in
  let boundary =
    ref (match window with Some w -> float_of_int w | None -> infinity)
  in
  let row () = match window with Some _ -> List.hd !rows | None -> stats in
  (* The ready queue: (time, push sequence, warp), sorted. *)
  let queue = ref [] and seq = ref 0 in
  let push time w =
    let s = !seq in
    incr seq;
    let rec insert = function
      | ((t', s', _) as e) :: rest when (t', s') < (time, s) ->
        e :: insert rest
      | later -> (time, s, w) :: later
    in
    queue := insert !queue
  in
  (* Warps are dealt round-robin; each SM starts its first
     [max_warps_per_sm] and queues the rest. *)
  let n_warps = Array.length traces in
  let pending =
    Array.init n_sms (fun sm ->
        List.filter (fun w -> w mod n_sms = sm) (List.init n_warps Fun.id))
  in
  let activate sm time =
    match pending.(sm) with
    | [] -> ()
    | w :: rest ->
      pending.(sm) <- rest;
      push time w
  in
  for sm = 0 to n_sms - 1 do
    for _ = 1 to cfg.Config.max_warps_per_sm do
      activate sm 0.
    done
  done;
  let pcs = Array.make n_warps 0 in
  let finish = ref 0. in
  let issue_cost = 1. /. float_of_int cfg.Config.issue_width in
  let rec step () =
    match !queue with
    | [] -> ()
    | (ready, _, w) :: rest ->
      queue := rest;
      while ready >= !boundary do
        rows := Stats.create () :: !rows;
        boundary := !boundary +. float_of_int (Option.get window)
      done;
      let sm = w mod n_sms in
      let tr = traces.(w) in
      let pc = pcs.(w) in
      if pc >= Trace.length tr then begin
        finish := Float.max !finish ready;
        activate sm ready
      end
      else begin
        pcs.(w) <- pc + 1;
        let st = row () in
        let op = Trace.op tr pc and lbl = Trace.label_index tr pc in
        let rep = Trace.repeat tr pc in
        Stats.bump st
          (if op = Trace.op_compute then K.instructions_compute
           else if
             op = Trace.op_ctrl || op = Trace.op_call_indirect
             || op = Trace.op_call_direct
           then K.instructions_ctrl
           else K.instructions_mem)
          rep;
        let issue = Float.max ready issue_clock.(sm) in
        let slots = float_of_int rep *. issue_cost in
        issue_clock.(sm) <- issue +. slots;
        let next_ready =
          if op = Trace.op_load || op = Trace.op_store then begin
            let sectors =
              match lanes.(w) with
              | record :: rest ->
                lanes.(w) <- rest;
                coalesce (Array.to_list record)
              | [] -> invalid_arg "Ref_model.launch: a memory record has no lanes"
            in
            let n = List.length sectors in
            (* LSU acceptance. *)
            let t0 = Float.max issue lsu_free.(sm) in
            lsu_free.(sm) <-
              t0
              +. Float.max
                   (1. /. cfg.Config.lsu_throughput)
                   (float_of_int n /. cfg.Config.l1_sector_throughput);
            (* Translation: the sector's lookup delay, counted. *)
            let translated sector =
              match m.xlat with
              | None -> t0
              | Some x ->
                let outcome, tx = translate x ~sm sector in
                (match outcome with
                 | L1_hit -> Stats.bump st K.tlb_l1_hits 1
                 | L2_hit -> Stats.bump st K.tlb_l2_hits 1
                 | Walk levels ->
                   Stats.bump st K.tlb_walks 1;
                   Stats.bump_float st K.tlb_walk_cycles tx;
                   record Telemetry.kind_tlb sm levels sector t0 tx);
                t0 +. tx
            in
            if op = Trace.op_load then begin
              Stats.bump st K.load_transactions n;
              Stats.bump st K.load_transactions_by_label.members.(lbl) n;
              let compl = ref t0 in
              List.iter
                (fun sector ->
                  let t1 = Float.max (translated sector) l1_free.(sm) in
                  l1_free.(sm) <- t1 +. (1. /. cfg.Config.l1_sector_throughput);
                  let l1_lat = float_of_int cfg.Config.l1_latency in
                  if cache_access m.l1s.(sm) sector then begin
                    Stats.bump st K.l1_hits 1;
                    record Telemetry.kind_l1 sm 1 sector t1 l1_lat;
                    compl := Float.max !compl (t1 +. l1_lat)
                  end
                  else begin
                    Stats.bump st K.l1_misses 1;
                    record Telemetry.kind_l1 sm 0 sector t1 0.;
                    let t2 = Float.max (t1 +. l1_lat) !l2_free in
                    l2_free := t2 +. (1. /. cfg.Config.l2_sector_throughput);
                    let l2_lat = float_of_int cfg.Config.l2_latency in
                    if cache_access m.l2 sector then begin
                      Stats.bump st K.l2_hits 1;
                      record Telemetry.kind_l2 sm 1 sector t2 l2_lat;
                      compl := Float.max !compl (t2 +. l2_lat)
                    end
                    else begin
                      Stats.bump st K.l2_misses 1;
                      record Telemetry.kind_l2 sm 0 sector t2 0.;
                      (* The 64 B DRAM fill: both sectors of the pair. *)
                      Stats.bump st K.dram_sectors 2;
                      ignore (cache_access m.l2 (sector lxor 1));
                      let t3 = Float.max (t2 +. l2_lat) !dram_free in
                      dram_free :=
                        t3 +. (2. /. cfg.Config.dram_sector_throughput);
                      let dram_lat = float_of_int cfg.Config.dram_latency in
                      record Telemetry.kind_dram sm 2 sector t3 dram_lat;
                      compl := Float.max !compl (t3 +. dram_lat)
                    end
                  end)
                sectors;
              if Trace.is_blocking tr pc then !compl else issue +. slots
            end
            else begin
              Stats.bump st K.store_transactions n;
              List.iter
                (fun sector ->
                  let t2 = Float.max (translated sector) !l2_free in
                  l2_free := t2 +. (1. /. cfg.Config.l2_sector_throughput);
                  if cache_access m.l2 sector then
                    record Telemetry.kind_l2 sm 3 sector t2 0.
                  else begin
                    record Telemetry.kind_l2 sm 2 sector t2 0.;
                    Stats.bump st K.dram_sectors 1;
                    let t3 = Float.max t2 !dram_free in
                    dram_free := t3 +. (1. /. cfg.Config.dram_sector_throughput);
                    record Telemetry.kind_dram sm 1 sector t3 0.
                  end)
                sectors;
              issue +. slots
            end
          end
          else if op = Trace.op_compute then
            if Trace.is_blocking tr pc then
              issue +. float_of_int (rep * cfg.Config.compute_latency)
            else issue +. slots
          else
            issue
            +. float_of_int
                 (if op = Trace.op_ctrl then cfg.Config.ctrl_latency
                  else if op = Trace.op_const_load then cfg.Config.const_latency
                  else if op = Trace.op_call_indirect then
                    cfg.Config.call_indirect_latency
                  else cfg.Config.call_direct_latency)
        in
        let stall = next_ready -. issue -. slots in
        if stall > 0. then begin
          Stats.bump_float st K.stalls.members.(lbl) stall;
          events :=
            { Event_ring.kind = Telemetry.kind_stall; track = sm; arg_a = lbl;
              arg_b = w; ts = base +. issue +. slots; dur = stall }
            :: !events
        end;
        push next_ready w
      end;
      step ()
  in
  step ();
  let cycles = !finish in
  let rows =
    match window with
    | None -> []
    | Some w ->
      (* Every sealed window lasted [w] cycles; the open one the rest. *)
      let rows = List.rev !rows in
      let sealed = List.length rows - 1 in
      List.iteri
        (fun i r ->
          Stats.add_cycles r
            (if i < sealed then float_of_int w
             else cycles -. (float_of_int sealed *. float_of_int w)))
        rows;
      rows
  in
  (cycles, rows, List.rev !events)
