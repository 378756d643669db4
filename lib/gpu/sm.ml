(* The event-driven warp scheduler, written as a zero-allocation replay
   loop: warp state is a pair of int arrays (program counter, and the
   round-robin SM is recomputed from the warp index), the ready queue is
   the flat {!Event_heap} with warp indices as payloads, and floats cross
   the [Mem_path] boundary through its [io] mailbox. Nothing on the
   per-instruction path builds a record, option, closure or boxed float;
   the only allocations are per-warp (activation list, heap growth),
   constant for a fixed launch shape regardless of trace length.

   Telemetry keeps that discipline: it only adds a float-array compare
   per pop (the sampler's boundary mailbox) plus direct int/float-array
   stores into the event ring — recording never boxes. Without telemetry
   the boundary mailbox holds infinity and there is no ring.

   This is the telemetry loop and the reference: [Device] replays every
   telemetry-off launch, translated or not, through [run_fused] below,
   and the equivalence tests hold [run_fused] to this loop. *)

(* Bit-identical to [Float.max] on this domain (non-NaN, no negative
   zero): simulated times only grow from 0 by positive increments. *)
let fmax (a : float) (b : float) = if a >= b then a else b

let run ?telemetry (cfg : Config.t) mem_path ~stats ~traces =
  Config.validate cfg;
  let n_warps = Array.length traces in
  if n_warps = 0 then 0.
  else begin
    Mem_path.begin_kernel mem_path;
    let issue_clock = Array.make cfg.n_sms 0. in
    let pcs = Array.make n_warps 0 in
    let events = Event_heap.create ~capacity:n_warps () in
    let kc = Event_heap.key_cell events in
    let io = Mem_path.io mem_path in
    (* finish.(0) is the kernel completion time; a float array cell
       rather than a [float ref], whose every [:=] would box. *)
    let finish = Array.make 1 0. in
    (* Warps are dealt round-robin to SMs; each SM activates its first
       [max_warps_per_sm] immediately and queues the rest. *)
    let pending = Array.make cfg.n_sms ([] : int list) in
    for i = n_warps - 1 downto 0 do
      let sm = i mod cfg.n_sms in
      pending.(sm) <- i :: pending.(sm)
    done;
    let activate sm now =
      match pending.(sm) with
      | [] -> ()
      | w :: rest ->
        pending.(sm) <- rest;
        kc.(0) <- now;
        Event_heap.push events w
    in
    for sm = 0 to cfg.n_sms - 1 do
      for _ = 1 to cfg.max_warps_per_sm do
        activate sm 0.
      done
    done;
    let issue_cost = 1. /. float_of_int cfg.issue_width in
    let ctrl_lat = float_of_int cfg.ctrl_latency in
    let const_lat = float_of_int cfg.const_latency in
    let call_ind_lat = float_of_int cfg.call_indirect_latency in
    let call_dir_lat = float_of_int cfg.call_direct_latency in
    let sampler, ring =
      match telemetry with
      | Some tel -> (tel.Telemetry.sampler, tel.Telemetry.ring)
      | None -> (None, None)
    in
    (* With sampling on, counters flow into the open window's row;
       [cur]/[stalls] are refs so the rare boundary crossing can swap
       them (a pointer store, no allocation). The infinity mailbox
       makes the per-pop compare uniform when sampling is off. *)
    let bcell =
      match sampler with
      | Some s -> Telemetry.Sampler.boundary_cell s
      | None -> Array.make 1 infinity
    in
    let cur =
      ref
        (match sampler with
         | Some s -> Telemetry.Sampler.current s
         | None -> stats)
    in
    let stalls = ref (Stats.stall_accumulator !cur) in
    let rec drain () =
      let w = Event_heap.pop events in
      if w >= 0 then begin
        let ready = kc.(0) in
        if ready >= bcell.(0) then begin
          match sampler with
          | Some s ->
            Telemetry.Sampler.advance s ~now:ready;
            let row = Telemetry.Sampler.current s in
            cur := row;
            stalls := Stats.stall_accumulator row
          | None -> ()
        end;
        let tr = traces.(w) in
        let pc = pcs.(w) in
        let sm = w mod cfg.n_sms in
        if pc >= Trace.length tr then begin
          (* Warp retires; its slot frees for a pending warp. *)
          if ready > finish.(0) then finish.(0) <- ready;
          activate sm ready
        end
        else begin
          pcs.(w) <- pc + 1;
          let op = Trace.op tr pc in
          let lbl = Trace.label_index tr pc in
          let rep = Trace.repeat tr pc in
          let st = !cur in
          Stats.count_classified st
            (if op = Trace.op_compute then `Compute
             else if op = Trace.op_ctrl || op >= Trace.op_call_indirect then `Ctrl
             else `Mem)
            rep;
          let issue_time = fmax ready issue_clock.(sm) in
          let slots = float_of_int rep *. issue_cost in
          issue_clock.(sm) <- issue_time +. slots;
          let next_ready =
            if op = Trace.op_load then begin
              io.(0) <- issue_time;
              Mem_path.load_soa mem_path ~stats:st ~label_idx:lbl ~sm
                ~arena:(Trace.arena tr) ~off:(Trace.addr_off tr pc)
                ~len:(Trace.active tr pc);
              if Trace.is_blocking tr pc then io.(1) else issue_time +. slots
            end
            else if op = Trace.op_store then begin
              io.(0) <- issue_time;
              Mem_path.store_soa mem_path ~stats:st ~sm ~arena:(Trace.arena tr)
                ~off:(Trace.addr_off tr pc) ~len:(Trace.active tr pc);
              issue_time +. slots
            end
            else if op = Trace.op_compute then
              if Trace.is_blocking tr pc then
                (* A dependent ALU chain: each op waits on the previous. *)
                issue_time +. float_of_int (rep * cfg.compute_latency)
              else issue_time +. slots
            else if op = Trace.op_ctrl then issue_time +. ctrl_lat
            else if op = Trace.op_const_load then issue_time +. const_lat
            else if op = Trace.op_call_indirect then issue_time +. call_ind_lat
            else issue_time +. call_dir_lat
          in
          let stall = next_ready -. issue_time -. slots in
          if stall > 0. then begin
            let sa = !stalls in
            sa.(lbl) <- sa.(lbl) +. stall;
            match ring with
            | Some r ->
              (* Stall span, written field by field (a helper taking
                 ts/dur floats would box them per event). *)
              let i = r.Telemetry.Ring.head in
              r.Telemetry.Ring.kind.(i) <- Telemetry.Ring.kind_stall;
              r.Telemetry.Ring.track.(i) <- sm;
              r.Telemetry.Ring.arg_a.(i) <- lbl;
              r.Telemetry.Ring.arg_b.(i) <- w;
              let t0 = r.Telemetry.Ring.cells.(0) +. issue_time +. slots in
              r.Telemetry.Ring.ts.(i) <- t0;
              r.Telemetry.Ring.dur.(i) <- stall;
              let e = t0 +. stall in
              if e > r.Telemetry.Ring.cells.(1) then
                r.Telemetry.Ring.cells.(1) <- e;
              Telemetry.Ring.bump r
            | None -> ()
          end;
          kc.(0) <- next_ready;
          Event_heap.push events w
        end;
        drain ()
      end
    in
    drain ();
    finish.(0)
  end

(* [Cache.access] over raw arrays for the fused loop below: same scan
   orders, same clock/stamp updates, returning a bare bool (true = the
   sector was valid). Top level so the call carries no closure
   environment; every argument is an int or an array, so nothing boxes. *)
let access_raw (tags : int array) (valid : int array) (stamps : int array)
    (clock : int array) ways sshift smask setmask sector =
  let line = sector lsr sshift in
  let set = line land setmask in
  let now = clock.(0) + 1 in
  clock.(0) <- now;
  let bit = 1 lsl (sector land smask) in
  let base = set * ways in
  (* First way holding [line], scanning way 0 upward (Cache.find_slot). *)
  let slot = ref (-1) in
  let way = ref 0 in
  while !slot < 0 && !way < ways do
    if Array.unsafe_get tags (base + !way) = line then slot := base + !way
    else incr way
  done;
  if !slot >= 0 then begin
    let s = !slot in
    Array.unsafe_set stamps s now;
    if Array.unsafe_get valid s land bit <> 0 then true
    else begin
      Array.unsafe_set valid s (Array.unsafe_get valid s lor bit);
      false
    end
  end
  else begin
    (* Evict the LRU way: min stamp, first-found on ties (Cache.lru_slot
       scans way 1 upward with a strict compare). *)
    let best = ref base in
    for k = 1 to ways - 1 do
      if Array.unsafe_get stamps (base + k) < Array.unsafe_get stamps !best
      then best := base + k
    done;
    let s = !best in
    Array.unsafe_set tags s line;
    Array.unsafe_set valid s bit;
    Array.unsafe_set stamps s now;
    false
  end

(* [Tlb.access] over raw arrays: same set indexing, same tick bump, same
   first-match scan, and on a miss the same fill of the set's first
   minimum-stamp way. *)
let tlb_access_raw (tags : int array) (stamps : int array) (tick : int array)
    mask ways key =
  let base = (key land mask) * ways in
  let now = tick.(0) + 1 in
  tick.(0) <- now;
  let way = ref 0 in
  while !way < ways && Array.unsafe_get tags (base + !way) <> key do
    incr way
  done;
  if !way < ways then begin
    Array.unsafe_set stamps (base + !way) now;
    true
  end
  else begin
    let best = ref base in
    for k = 1 to ways - 1 do
      if Array.unsafe_get stamps (base + k) < Array.unsafe_get stamps !best
      then best := base + k
    done;
    Array.unsafe_set tags !best key;
    Array.unsafe_set stamps !best now;
    false
  end

(* Translation state for one fused launch, hoisted from the attached
   [Vm.t] plus the data-hierarchy state the translated sector walks need.
   Built once per launch; [None] in the loop keeps plain launches off
   every line below. *)
type xlat = {
  (* Page table ([Page_table.Raw]). *)
  sbase : int array;
  slimit : int array;
  pshift : int array;
  plevels : int array;
  last : int array;
  (* Per-SM L1 TLBs and the shared L2 TLB ([Tlb.Raw]). *)
  t1_tags : int array array;
  t1_stamps : int array array;
  t1_tick : int array array;
  t1_mask : int;
  t1_ways : int;
  t2_tags : int array;
  t2_stamps : int array;
  t2_tick : int array;
  t2_mask : int;
  t2_ways : int;
  vm_lat : float array;  (* cycles per lookup code *)
  (* The data hierarchy, as the plain loop hoists it. *)
  scratch : int array;
  l1_next_free : float array;
  clk : float array;
  c1_tags : int array array;
  c1_valid : int array array;
  c1_stamps : int array array;
  c1_clock : int array array;
  c1_ways : int;
  c1_sshift : int;
  c1_smask : int;
  c1_setmask : int;
  c2_tags : int array;
  c2_valid : int array;
  c2_stamps : int array;
  c2_clock : int array;
  c2_ways : int;
  c2_sshift : int;
  c2_smask : int;
  c2_setmask : int;
  inv_l1_tp : float;
  inv_l2_tp : float;
  inv_dram_cost : float;
  dram_pair_cost : float;
  l1_lat : float;
  l2_lat : float;
  dram_lat : float;
  (* io.(0): the access's LSU start time in; a load's completion out. *)
  io : float array;
  (* Counters, flushed to [Stats] once per launch. *)
  mutable l1h : int;
  mutable l1m : int;
  mutable l2h : int;
  mutable l2m : int;
  mutable dram : int;
  mutable tlb_l1h : int;
  mutable tlb_l2h : int;
  mutable walks : int;
  (* walk.(0): running [tlb_walk_cycles], seeded from the launch's
     stats so the float adds are the reference's, in its order. *)
  walk : float array;
}

(* [Vm.lookup] inlined: [Page_table.find] (one-entry hint, then binary
   search), [Page_table.key], then the SM's L1 TLB and the L2 TLB. *)
let translate x sm sector =
  let sbase = x.sbase and slimit = x.slimit in
  let n = Array.length sbase in
  let last = x.last.(0) in
  let i =
    if
      last < n
      && sector >= Array.unsafe_get sbase last
      && sector < Array.unsafe_get slimit last
    then last
    else begin
      let lo = ref 0 and hi = ref n and found = ref (-1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if sector < Array.unsafe_get sbase mid then hi := mid
        else if sector >= Array.unsafe_get slimit mid then lo := mid + 1
        else begin
          found := mid;
          lo := !hi
        end
      done;
      if !found >= 0 then x.last.(0) <- !found;
      !found
    end
  in
  if i < 0 then Repro_vm.Vm.walk_base + Repro_vm.Page_table.max_levels
  else begin
    let key =
      (i lsl Repro_vm.Page_table.span_key_shift)
      lor ((sector - Array.unsafe_get sbase i) lsr Array.unsafe_get x.pshift i)
    in
    if
      tlb_access_raw (Array.unsafe_get x.t1_tags sm)
        (Array.unsafe_get x.t1_stamps sm) (Array.unsafe_get x.t1_tick sm)
        x.t1_mask x.t1_ways key
    then Repro_vm.Vm.hit_l1
    else if
      tlb_access_raw x.t2_tags x.t2_stamps x.t2_tick x.t2_mask x.t2_ways key
    then Repro_vm.Vm.hit_l2
    else Repro_vm.Vm.walk_base + Array.unsafe_get x.plevels i
  end

(* Count one lookup outcome ([Mem_path]'s per-code [Stats] calls). *)
let[@inline] count_lookup x code =
  if code = Repro_vm.Vm.hit_l1 then x.tlb_l1h <- x.tlb_l1h + 1
  else if code = Repro_vm.Vm.hit_l2 then x.tlb_l2h <- x.tlb_l2h + 1
  else begin
    x.walks <- x.walks + 1;
    x.walk.(0) <- x.walk.(0) +. Array.unsafe_get x.vm_lat code
  end

(* The [Some vm] sector walk of [Mem_path.load_soa] over the [n]
   coalesced sectors in [x.scratch]: translate, delay the sector's L1
   issue by the lookup latency, then the plain hierarchy walk. Called
   once per translated load so the plain loop's body stays as it was. *)
let load_translated x sm n =
  let t0 = x.io.(0) in
  let l1t = Array.unsafe_get x.c1_tags sm in
  let l1v = Array.unsafe_get x.c1_valid sm in
  let l1st = Array.unsafe_get x.c1_stamps sm in
  let l1ck = Array.unsafe_get x.c1_clock sm in
  let l1_next_free = x.l1_next_free and clk = x.clk and io = x.io in
  for i = 0 to n - 1 do
    let sector = Array.unsafe_get x.scratch i in
    let code = translate x sm sector in
    count_lookup x code;
    let tx = Array.unsafe_get x.vm_lat code in
    let a = t0 +. tx in
    let lnf = Array.unsafe_get l1_next_free sm in
    let t1 = if a >= lnf then a else lnf in
    Array.unsafe_set l1_next_free sm (t1 +. x.inv_l1_tp);
    if
      access_raw l1t l1v l1st l1ck x.c1_ways x.c1_sshift x.c1_smask
        x.c1_setmask sector
    then begin
      x.l1h <- x.l1h + 1;
      let c = t1 +. x.l1_lat in
      if c > io.(0) then io.(0) <- c
    end
    else begin
      x.l1m <- x.l1m + 1;
      let a = t1 +. x.l1_lat in
      let t2 = if a >= clk.(0) then a else clk.(0) in
      clk.(0) <- t2 +. x.inv_l2_tp;
      if
        access_raw x.c2_tags x.c2_valid x.c2_stamps x.c2_clock x.c2_ways
          x.c2_sshift x.c2_smask x.c2_setmask sector
      then begin
        x.l2h <- x.l2h + 1;
        let c = t2 +. x.l2_lat in
        if c > io.(0) then io.(0) <- c
      end
      else begin
        x.l2m <- x.l2m + 1;
        x.dram <- x.dram + 2;
        ignore
          (access_raw x.c2_tags x.c2_valid x.c2_stamps x.c2_clock x.c2_ways
             x.c2_sshift x.c2_smask x.c2_setmask (sector lxor 1));
        let b = t2 +. x.l2_lat in
        let t3 = if b >= clk.(1) then b else clk.(1) in
        clk.(1) <- t3 +. x.dram_pair_cost;
        let c = t3 +. x.dram_lat in
        if c > io.(0) then io.(0) <- c
      end
    end
  done

(* The [Some vm] sector walk of [Mem_path.store_soa]: the lookup latency
   delays the sector's L2 arbitration. *)
let store_translated x sm n =
  let t0 = x.io.(0) in
  let clk = x.clk in
  for i = 0 to n - 1 do
    let sector = Array.unsafe_get x.scratch i in
    let code = translate x sm sector in
    count_lookup x code;
    let a = t0 +. Array.unsafe_get x.vm_lat code in
    let t2 = if a >= clk.(0) then a else clk.(0) in
    clk.(0) <- t2 +. x.inv_l2_tp;
    if
      not
        (access_raw x.c2_tags x.c2_valid x.c2_stamps x.c2_clock x.c2_ways
           x.c2_sshift x.c2_smask x.c2_setmask sector)
    then begin
      x.dram <- x.dram + 1;
      let t3 = if t2 >= clk.(1) then t2 else clk.(1) in
      clk.(1) <- t3 +. x.inv_dram_cost
    end
  done

(* The fused replay twin of [run]: same event order, same float
   operations in the same sequence, so the launch it times is
   byte-identical in cycles and counters — verified by the qcheck
   equivalence test. What changes is
   only mechanics (this build has no flambda, so every cross-module
   call in [run]'s per-instruction path is a real call):

   - trace columns, cache state and memory-path clocks are hoisted into
     locals once per launch, and the [Mem_path.load_soa]/[store_soa]
     hierarchy walk and [Cache.access] are inlined over them
     ([access_raw]), eliminating the per-sector call chain;
   - the event heap is a local replace-top heap: every pop is followed
     by at most one push (the re-issue or an activation), which a
     pop-then-push pair services with a single root sift. Heap content
     after each step equals [Event_heap]'s (same keys, same insertion
     sequence numbers), and the pop order — the only thing timing and
     counters depend on — is the lexicographic (key, seq) minimum of
     that content, so it is identical by construction;
   - int counters (instruction classes, transactions, hits, DRAM
     sectors) accumulate in locals and flush once per launch through
     [Stats.bump_replay_counters]; integer adds are exact, so the
     totals match per-instruction counting bit for bit;
   - with a translation model attached, the page table and both TLB
     levels are hoisted too ([xlat]), and each memory instruction picks
     its sector walk once: [load_translated]/[store_translated] (the
     [Some vm] branches of [Mem_path], with [Vm.lookup] inlined) or the
     plain walk written out below. Walk cycles accumulate in a float
     cell seeded from the launch's stats, so the float adds match
     per-walk [Stats.count_tlb_walk] in value and order.

   The precondition mirrors the gate in [Device]: no telemetry ring;
   [run] remains the loop for telemetry. *)
let run_fused (cfg : Config.t) mem_path ~stats ~traces =
  Config.validate cfg;
  if Option.is_some (Mem_path.ring mem_path) then
    invalid_arg "Sm.run_fused: mem path has a telemetry ring attached";
  let n_warps = Array.length traces in
  if n_warps = 0 then 0.
  else begin
    Mem_path.begin_kernel mem_path;
    let n_sms = cfg.n_sms in
    let issue_clock = Array.make n_sms 0. in
    let pcs = Array.make n_warps 0 in
    (* Per-warp trace columns, hoisted. [lens] is the logical length, so
       an in-bounds [pc] indexes every column safely (unsafe gets). *)
    let lens = Array.map Trace.length traces in
    let ops = Array.map Trace.Raw.op_col traces in
    let lbls = Array.map Trace.Raw.lbl_col traces in
    let acts = Array.map Trace.Raw.act_col traces in
    let reps = Array.map Trace.Raw.rep_col traces in
    let blks = Array.map Trace.Raw.blk_col traces in
    let aoffs = Array.map Trace.Raw.aoff_col traces in
    let arenas = Array.map Trace.arena traces in
    (* Memory-path state and precomputed costs, hoisted. *)
    let scratch = Mem_path.Raw.scratch mem_path in
    let l1_next_free = Mem_path.Raw.l1_next_free mem_path in
    let lsu_next_free = Mem_path.Raw.lsu_next_free mem_path in
    let clk = Mem_path.Raw.clk mem_path in
    let inv_l1_tp = Mem_path.Raw.inv_l1_tp mem_path in
    let inv_l2_tp = Mem_path.Raw.inv_l2_tp mem_path in
    let inv_lsu_tp = Mem_path.Raw.inv_lsu_tp mem_path in
    let inv_dram_cost = Mem_path.Raw.inv_dram_cost mem_path in
    let dram_pair_cost = Mem_path.Raw.dram_pair_cost mem_path in
    let l1_lat = Mem_path.Raw.l1_lat mem_path in
    let l2_lat = Mem_path.Raw.l2_lat mem_path in
    let dram_lat = Mem_path.Raw.dram_lat mem_path in
    let n_over_l1 = Mem_path.Raw.n_over_l1 mem_path in
    let l1s = Mem_path.Raw.l1s mem_path in
    let l1_tags = Array.map Cache.Raw.tags l1s in
    let l1_valid = Array.map Cache.Raw.valid l1s in
    let l1_stamps = Array.map Cache.Raw.stamps l1s in
    let l1_clock = Array.map Cache.Raw.clock_cell l1s in
    let l1_ways = Cache.Raw.ways l1s.(0) in
    let l1_sshift = Cache.Raw.sector_shift l1s.(0) in
    let l1_smask = Cache.Raw.sector_mask l1s.(0) in
    let l1_setmask = Cache.Raw.set_mask l1s.(0) in
    let l2 = Mem_path.Raw.l2 mem_path in
    let l2_tags = Cache.Raw.tags l2 in
    let l2_valid = Cache.Raw.valid l2 in
    let l2_stamps = Cache.Raw.stamps l2 in
    let l2_clock = Cache.Raw.clock_cell l2 in
    let l2_ways = Cache.Raw.ways l2 in
    let l2_sshift = Cache.Raw.sector_shift l2 in
    let l2_smask = Cache.Raw.sector_mask l2 in
    let l2_setmask = Cache.Raw.set_mask l2 in
    (* Stats sinks: float stalls and per-label transactions stream to
       the shared accumulators; scalar int counters stay in locals until
       the one flush at the end. *)
    let stalls = Stats.stall_accumulator stats in
    let ld_by_lbl = Stats.load_transactions_accumulator stats in
    let n_mem = ref 0 and n_comp = ref 0 and n_ctrl = ref 0 in
    let ld_tr = ref 0 and st_tr = ref 0 in
    let l1h = ref 0 and l1m = ref 0 and l2h = ref 0 and l2m = ref 0 in
    let dram = ref 0 in
    (* Load completion mailbox (io.(1)'s role) and kernel finish time. *)
    let compl_ = Array.make 1 0. in
    let finish = Array.make 1 0. in
    let xl =
      match Mem_path.vm mem_path with
      | None -> None
      | Some vm ->
        let module V = Repro_vm in
        let table = V.Vm.table vm in
        let l1t = V.Vm.l1_tlbs vm and l2t = V.Vm.l2_tlb vm in
        Some
          {
            sbase = V.Page_table.Raw.sbase table;
            slimit = V.Page_table.Raw.slimit table;
            pshift = V.Page_table.Raw.shift table;
            plevels = V.Page_table.Raw.levels table;
            last = V.Page_table.Raw.last table;
            t1_tags = Array.map V.Tlb.Raw.tags l1t;
            t1_stamps = Array.map V.Tlb.Raw.stamps l1t;
            t1_tick = Array.map V.Tlb.Raw.tick l1t;
            t1_mask = V.Tlb.Raw.mask l1t.(0);
            t1_ways = V.Tlb.Raw.ways l1t.(0);
            t2_tags = V.Tlb.Raw.tags l2t;
            t2_stamps = V.Tlb.Raw.stamps l2t;
            t2_tick = V.Tlb.Raw.tick l2t;
            t2_mask = V.Tlb.Raw.mask l2t;
            t2_ways = V.Tlb.Raw.ways l2t;
            vm_lat = Mem_path.Raw.vm_lat mem_path;
            scratch;
            l1_next_free;
            clk;
            c1_tags = l1_tags;
            c1_valid = l1_valid;
            c1_stamps = l1_stamps;
            c1_clock = l1_clock;
            c1_ways = l1_ways;
            c1_sshift = l1_sshift;
            c1_smask = l1_smask;
            c1_setmask = l1_setmask;
            c2_tags = l2_tags;
            c2_valid = l2_valid;
            c2_stamps = l2_stamps;
            c2_clock = l2_clock;
            c2_ways = l2_ways;
            c2_sshift = l2_sshift;
            c2_smask = l2_smask;
            c2_setmask = l2_setmask;
            inv_l1_tp;
            inv_l2_tp;
            inv_dram_cost;
            dram_pair_cost;
            l1_lat;
            l2_lat;
            dram_lat;
            io = compl_;
            l1h = 0;
            l1m = 0;
            l2h = 0;
            l2m = 0;
            dram = 0;
            tlb_l1h = 0;
            tlb_l2h = 0;
            walks = 0;
            walk = Array.make 1 (Stats.tlb_walk_cycles stats);
          }
    in
    (* The replace-top heap. Capacity [n_warps] suffices: every pop is
       followed by at most one push, and the initial activations push at
       most one entry per warp. 4-ary with a hole sift (save the root
       entry, pull min-children up, place once): half the depth and a
       third of the array writes of a binary swap sift. Any exact
       min-queue yields the same pop order — each pop takes the
       lexicographic (key, seq) minimum of the same content — so the
       replay it drives is byte-identical regardless of arity. *)
    let hkeys = Array.make n_warps 0. in
    let hseqs = Array.make n_warps 0 in
    let hvals = Array.make n_warps 0 in
    let hlen = ref 0 in
    let hseq = ref 0 in
    let sift_down_root () =
      let n = !hlen in
      let k = Array.unsafe_get hkeys 0 in
      let q = Array.unsafe_get hseqs 0 in
      let v = Array.unsafe_get hvals 0 in
      let i = ref 0 in
      let cont = ref true in
      while !cont do
        let c0 = (4 * !i) + 1 in
        if c0 >= n then cont := false
        else begin
          let hi = if c0 + 3 < n - 1 then c0 + 3 else n - 1 in
          let s = ref c0 in
          for c = c0 + 1 to hi do
            if
              Array.unsafe_get hkeys c < Array.unsafe_get hkeys !s
              || (Array.unsafe_get hkeys c = Array.unsafe_get hkeys !s
                  && Array.unsafe_get hseqs c < Array.unsafe_get hseqs !s)
            then s := c
          done;
          let sk = Array.unsafe_get hkeys !s in
          if sk < k || (sk = k && Array.unsafe_get hseqs !s < q) then begin
            Array.unsafe_set hkeys !i sk;
            Array.unsafe_set hseqs !i (Array.unsafe_get hseqs !s);
            Array.unsafe_set hvals !i (Array.unsafe_get hvals !s);
            i := !s
          end
          else cont := false
        end
      done;
      Array.unsafe_set hkeys !i k;
      Array.unsafe_set hseqs !i q;
      Array.unsafe_set hvals !i v
    in
    (* Same warp dealing as [run]: round-robin to SMs, first
       [max_warps_per_sm] per SM active immediately. The initial pushes
       all carry key 0 with ascending seqs, so appending in order
       already satisfies the heap invariant (parent index < child index
       implies parent seq < child seq — for any arity). *)
    let pending = Array.make n_sms ([] : int list) in
    for i = n_warps - 1 downto 0 do
      let sm = i mod n_sms in
      pending.(sm) <- i :: pending.(sm)
    done;
    for sm = 0 to n_sms - 1 do
      for _ = 1 to cfg.max_warps_per_sm do
        match pending.(sm) with
        | [] -> ()
        | w :: rest ->
          pending.(sm) <- rest;
          hkeys.(!hlen) <- 0.;
          hseqs.(!hlen) <- !hseq;
          hvals.(!hlen) <- w;
          incr hseq;
          incr hlen
      done
    done;
    let issue_cost = 1. /. float_of_int cfg.issue_width in
    let ctrl_lat = float_of_int cfg.ctrl_latency in
    let const_lat = float_of_int cfg.const_latency in
    let call_ind_lat = float_of_int cfg.call_indirect_latency in
    let call_dir_lat = float_of_int cfg.call_direct_latency in
    let compute_latency = cfg.compute_latency in
    while !hlen > 0 do
      let ready = hkeys.(0) in
      let w = hvals.(0) in
      let sm = w mod n_sms in
      let pc = Array.unsafe_get pcs w in
      if pc >= Array.unsafe_get lens w then begin
        (* Warp retires; replace the root with the activated warp, or
           shrink the heap when this SM has no warp pending. *)
        if ready > finish.(0) then finish.(0) <- ready;
        match pending.(sm) with
        | [] ->
          let n = !hlen - 1 in
          hlen := n;
          if n > 0 then begin
            hkeys.(0) <- hkeys.(n);
            hseqs.(0) <- hseqs.(n);
            hvals.(0) <- hvals.(n);
            sift_down_root ()
          end
        | w' :: rest ->
          pending.(sm) <- rest;
          hkeys.(0) <- ready;
          hseqs.(0) <- !hseq;
          hvals.(0) <- w';
          incr hseq;
          sift_down_root ()
      end
      else begin
        Array.unsafe_set pcs w (pc + 1);
        let op = Array.unsafe_get (Array.unsafe_get ops w) pc in
        let lbl = Array.unsafe_get (Array.unsafe_get lbls w) pc in
        let rep = Array.unsafe_get (Array.unsafe_get reps w) pc in
        if op = Trace.op_compute then n_comp := !n_comp + rep
        else if op = Trace.op_ctrl || op >= Trace.op_call_indirect then
          n_ctrl := !n_ctrl + rep
        else n_mem := !n_mem + rep;
        let ic = Array.unsafe_get issue_clock sm in
        let issue_time = if ready >= ic then ready else ic in
        let slots = float_of_int rep *. issue_cost in
        Array.unsafe_set issue_clock sm (issue_time +. slots);
        let next_ready =
          if op = Trace.op_load then begin
            let arena = Array.unsafe_get arenas w in
            let off = Array.unsafe_get (Array.unsafe_get aoffs w) pc in
            let len = Array.unsafe_get (Array.unsafe_get acts w) pc in
            let n = Coalesce.sectors_into_unsafe ~buf:scratch arena ~off ~len in
            ld_tr := !ld_tr + n;
            ld_by_lbl.(lbl) <- ld_by_lbl.(lbl) + n;
            let lf = Array.unsafe_get lsu_next_free sm in
            let t0 = if issue_time >= lf then issue_time else lf in
            let occ = Array.unsafe_get n_over_l1 n in
            Array.unsafe_set lsu_next_free sm
              (t0 +. if inv_lsu_tp >= occ then inv_lsu_tp else occ);
            compl_.(0) <- t0;
            (match xl with
             | Some x -> load_translated x sm n
             | None ->
               let l1t = Array.unsafe_get l1_tags sm in
               let l1v = Array.unsafe_get l1_valid sm in
               let l1st = Array.unsafe_get l1_stamps sm in
               let l1ck = Array.unsafe_get l1_clock sm in
               for i = 0 to n - 1 do
                 let sector = Array.unsafe_get scratch i in
                 let lnf = Array.unsafe_get l1_next_free sm in
                 let t1 = if t0 >= lnf then t0 else lnf in
                 Array.unsafe_set l1_next_free sm (t1 +. inv_l1_tp);
                 if
                   access_raw l1t l1v l1st l1ck l1_ways l1_sshift l1_smask
                     l1_setmask sector
                 then begin
                   incr l1h;
                   let c = t1 +. l1_lat in
                   if c > compl_.(0) then compl_.(0) <- c
                 end
                 else begin
                   incr l1m;
                   let a = t1 +. l1_lat in
                   let t2 = if a >= clk.(0) then a else clk.(0) in
                   clk.(0) <- t2 +. inv_l2_tp;
                   if
                     access_raw l2_tags l2_valid l2_stamps l2_clock l2_ways
                       l2_sshift l2_smask l2_setmask sector
                   then begin
                     incr l2h;
                     let c = t2 +. l2_lat in
                     if c > compl_.(0) then compl_.(0) <- c
                   end
                   else begin
                     incr l2m;
                     dram := !dram + 2;
                     ignore
                       (access_raw l2_tags l2_valid l2_stamps l2_clock l2_ways
                          l2_sshift l2_smask l2_setmask (sector lxor 1));
                     let b = t2 +. l2_lat in
                     let t3 = if b >= clk.(1) then b else clk.(1) in
                     clk.(1) <- t3 +. dram_pair_cost;
                     let c = t3 +. dram_lat in
                     if c > compl_.(0) then compl_.(0) <- c
                   end
                 end
               done);
            if Array.unsafe_get (Array.unsafe_get blks w) pc <> 0 then
              compl_.(0)
            else issue_time +. slots
          end
          else if op = Trace.op_store then begin
            let arena = Array.unsafe_get arenas w in
            let off = Array.unsafe_get (Array.unsafe_get aoffs w) pc in
            let len = Array.unsafe_get (Array.unsafe_get acts w) pc in
            let n = Coalesce.sectors_into_unsafe ~buf:scratch arena ~off ~len in
            st_tr := !st_tr + n;
            let lf = Array.unsafe_get lsu_next_free sm in
            let t0 = if issue_time >= lf then issue_time else lf in
            let occ = Array.unsafe_get n_over_l1 n in
            Array.unsafe_set lsu_next_free sm
              (t0 +. if inv_lsu_tp >= occ then inv_lsu_tp else occ);
            (match xl with
             | Some x ->
               compl_.(0) <- t0;
               store_translated x sm n
             | None ->
               for i = 0 to n - 1 do
                 let sector = Array.unsafe_get scratch i in
                 let t2 = if t0 >= clk.(0) then t0 else clk.(0) in
                 clk.(0) <- t2 +. inv_l2_tp;
                 if
                   not
                     (access_raw l2_tags l2_valid l2_stamps l2_clock l2_ways
                        l2_sshift l2_smask l2_setmask sector)
                 then begin
                   incr dram;
                   let t3 = if t2 >= clk.(1) then t2 else clk.(1) in
                   clk.(1) <- t3 +. inv_dram_cost
                 end
               done);
            issue_time +. slots
          end
          else if op = Trace.op_compute then
            if Array.unsafe_get (Array.unsafe_get blks w) pc <> 0 then
              issue_time +. float_of_int (rep * compute_latency)
            else issue_time +. slots
          else if op = Trace.op_ctrl then issue_time +. ctrl_lat
          else if op = Trace.op_const_load then issue_time +. const_lat
          else if op = Trace.op_call_indirect then issue_time +. call_ind_lat
          else issue_time +. call_dir_lat
        in
        let stall = next_ready -. issue_time -. slots in
        if stall > 0. then stalls.(lbl) <- stalls.(lbl) +. stall;
        hkeys.(0) <- next_ready;
        hseqs.(0) <- !hseq;
        incr hseq;
        sift_down_root ()
      end
    done;
    (match xl with
     | None ->
       Stats.bump_replay_counters stats ~mem:!n_mem ~compute:!n_comp
         ~ctrl:!n_ctrl ~load_trans:!ld_tr ~store_trans:!st_tr ~l1_hits:!l1h
         ~l1_misses:!l1m ~l2_hits:!l2h ~l2_misses:!l2m ~dram_sectors:!dram
     | Some x ->
       (* A translated launch counts every sector walk in [x]. *)
       Stats.bump_replay_counters stats ~mem:!n_mem ~compute:!n_comp
         ~ctrl:!n_ctrl ~load_trans:!ld_tr ~store_trans:!st_tr ~l1_hits:x.l1h
         ~l1_misses:x.l1m ~l2_hits:x.l2h ~l2_misses:x.l2m ~dram_sectors:x.dram;
       Stats.bump_tlb_counters stats ~l1_hits:x.tlb_l1h ~l2_hits:x.tlb_l2h
         ~walks:x.walks ~walk_cycles_total:x.walk.(0));
    finish.(0)
  end

(* Intra-launch sharded timing: each SM replays its own warps against a
   private slice of the memory system ([Config.slice] — own L1 as
   before, 1/n_sms of the L2 and of the L2/DRAM bandwidth), so the
   shards are fully independent and replay in parallel over the Domain
   pool. Per-SM stats are merged in SM order and the launch finishes at
   the slowest shard, making the result deterministic and independent of
   [jobs]. Warp dealing and intra-SM scheduling are exactly the
   sequential engine's (shard [s] gets warps [s, s+n_sms, ...] in
   order), so the only modelling difference is the statically-sliced L2
   and bandwidth. *)
let run_sharded (cfg : Config.t) ~shards ~jobs ~stats ~traces =
  Config.validate cfg;
  let n_sms = cfg.n_sms in
  if Array.length shards <> n_sms then
    invalid_arg "Sm.run_sharded: shard count does not match n_sms";
  let n_warps = Array.length traces in
  if n_warps = 0 then 0.
  else begin
    let scfg = Config.slice cfg in
    let shard_traces =
      Array.init n_sms (fun s ->
          let cnt = (n_warps - s + n_sms - 1) / n_sms in
          Array.init cnt (fun k -> traces.(s + (k * n_sms))))
    in
    let results =
      Repro_util.Pool.map ~jobs
        ~f:(fun s ->
          let st = Stats.create () in
          let cyc = run_fused scfg shards.(s) ~stats:st ~traces:shard_traces.(s) in
          (cyc, st))
        (Array.init n_sms (fun s -> s))
    in
    let finish = Array.make 1 0. in
    Array.iter
      (function
        | Ok (cyc, st) ->
          Stats.add stats st;
          if cyc > finish.(0) then finish.(0) <- cyc
        | Error e -> raise e)
      results;
    finish.(0)
  end
