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

   This is the reference loop: it serves telemetry and address
   translation. Plain launches replay through [run_fused] below. *)

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
     totals match per-instruction counting bit for bit.

   The precondition mirrors the gate in [Device]: no telemetry and no
   address translation ([Mem_path.plain]); [run] remains the reference
   path for those. *)
let run_fused (cfg : Config.t) mem_path ~stats ~traces =
  Config.validate cfg;
  if not (Mem_path.plain mem_path) then
    invalid_arg "Sm.run_fused: mem path has telemetry or translation attached";
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
            done;
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
            done;
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
    Stats.bump_replay_counters stats ~mem:!n_mem ~compute:!n_comp
      ~ctrl:!n_ctrl ~load_trans:!ld_tr ~store_trans:!st_tr ~l1_hits:!l1h
      ~l1_misses:!l1m ~l2_hits:!l2h ~l2_misses:!l2m ~dram_sectors:!dram;
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
