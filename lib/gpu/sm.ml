(* The event-driven warp scheduler: one zero-allocation replay loop for
   every launch, with or without telemetry or address translation.

   Per launch, the memory-path clocks and precomputed costs are hoisted
   into locals, and each warp's trace columns are read once, when the
   warp activates; per instruction, the loop reads raw
   columns, coalesces into the path's scratch buffer and walks the
   hierarchy through [Cache.access] (and, when translating, through
   [Vm.lookup]). Nothing on the per-instruction path builds a record,
   option, closure or boxed float: the allocations are per launch
   (column views, the event heap, activation lists) or, with sampling,
   per window, so they do not grow with trace length.

   The hooks are specialised once per launch:
   - the sampler's boundary cell holds infinity when sampling is off, so
     the per-pop window check is one float-array compare; at a crossing
     the launch-local counters are flushed into the open row before it
     is sealed;
   - each memory instruction picks one of two sector walks: the plain
     walk written out in the loop, or [load_walk]/[store_walk], which
     add translation and/or ring events and run only when the launch
     has a vm or a ring;
   - warp stall events are written to the ring only when one is passed
     through [?telemetry];
   - a streamed launch passes [?await], called before a warp's columns
     are read, so replay starts while later warps are still being
     emitted; it runs once per warp, never per instruction. *)

module Event_ring = Repro_util.Event_ring

module C = Repro_util.Counter_table
module K = Stats.Counter

(* Launch-local integer counters, indexed by [Stats]' own slots; flushed
   into the open [Stats] row at every window crossing and at the end of
   the launch. Integer adds are exact, so the totals equal per-event
   counting. Float counters (stalls, walk cycles) are not staged: they
   stream into the open row in event order. *)
let[@inline] bump (c : int array) (e : C.entry) n =
  let s = e.C.slot in
  Array.unsafe_set c s (Array.unsafe_get c s + n)

let flush_counters (row : Stats.t) (c : int array) =
  let v = (row :> float array) in
  for i = 0 to Array.length c - 1 do
    let n = c.(i) in
    if n <> 0 then begin
      v.(i) <- v.(i) +. float_of_int n;
      c.(i) <- 0
    end
  done

(* One event at the ring head, by direct stores. Local and small, so
   ocamlopt inlines it and the float arguments stay unboxed. *)
let[@inline] emit (r : Event_ring.t) kind track a b ts dur =
  (* [head] < capacity always ([Event_ring.bump] wraps it), and the six arrays
     share that capacity, so the unsafe stores are in bounds. *)
  let i = r.Event_ring.head in
  Array.unsafe_set r.Event_ring.kind i kind;
  Array.unsafe_set r.Event_ring.track i track;
  Array.unsafe_set r.Event_ring.arg_a i a;
  Array.unsafe_set r.Event_ring.arg_b i b;
  let abs_ts = Array.unsafe_get r.Event_ring.cells 0 +. ts in
  Array.unsafe_set r.Event_ring.ts i abs_ts;
  Array.unsafe_set r.Event_ring.dur i dur;
  let e = abs_ts +. dur in
  if e > Array.unsafe_get r.Event_ring.cells 1 then
    Array.unsafe_set r.Event_ring.cells 1 e;
  Event_ring.bump r

(* State of the out-of-line sector walks, built once per launch that
   translates or records events. *)
type walk = {
  vm : Repro_vm.Vm.t option;
  ring : Event_ring.t option;
  vm_lat : float array;  (* cycles per [Vm.lookup] code *)
  scratch : int array;
  l1s : Cache.t array;
  l2 : Cache.t;
  l1_next_free : float array;
  clk : float array;  (* clk.(0) = L2 next-free, clk.(1) = DRAM next-free *)
  inv_l1_tp : float;
  inv_l2_tp : float;
  inv_dram_cost : float;
  dram_pair_cost : float;
  l1_lat : float;
  l2_lat : float;
  dram_lat : float;
  compl : float array;  (* compl.(0): LSU start in; load completion out *)
  counters : int array;
  cur : Stats.t ref;  (* the open row *)
}

(* Count one translation; a walk also adds its cycles and, with a ring,
   records a [tlb] event spanning the walk from the LSU start [t0]. *)
let[@inline] count_lookup w sm sector code t0 tx =
  if code = Repro_vm.Vm.hit_l1 then bump w.counters K.tlb_l1_hits 1
  else if code = Repro_vm.Vm.hit_l2 then bump w.counters K.tlb_l2_hits 1
  else begin
    bump w.counters K.tlb_walks 1;
    let v = (!(w.cur) :> float array) and s = K.tlb_walk_cycles.C.slot in
    v.(s) <- v.(s) +. tx;
    match w.ring with
    | Some r ->
      emit r Telemetry.kind_tlb sm (code - Repro_vm.Vm.walk_base) sector
        t0 tx
    | None -> ()
  end

(* The load walk over the [n] coalesced sectors in [w.scratch]: the
   plain walk of [run], prefixed by a translation whose latency delays
   the sector's L1 issue, with every sector transaction recorded when a
   ring is attached. *)
let load_walk w sm n =
  let t0 = w.compl.(0) in
  let l1 = Array.unsafe_get w.l1s sm in
  let l1_next_free = w.l1_next_free and clk = w.clk and compl = w.compl in
  for i = 0 to n - 1 do
    let sector = Array.unsafe_get w.scratch i in
    let a =
      match w.vm with
      | None -> t0
      | Some vm ->
        let code = Repro_vm.Vm.lookup vm ~sm ~sector in
        let tx = Array.unsafe_get w.vm_lat code in
        count_lookup w sm sector code t0 tx;
        t0 +. tx
    in
    let lnf = Array.unsafe_get l1_next_free sm in
    let t1 = if a >= lnf then a else lnf in
    Array.unsafe_set l1_next_free sm (t1 +. w.inv_l1_tp);
    match Cache.access l1 ~sector with
    | `Hit ->
      bump w.counters K.l1_hits 1;
      (match w.ring with
       | Some r -> emit r Telemetry.kind_l1 sm 1 sector t1 w.l1_lat
       | None -> ());
      let c = t1 +. w.l1_lat in
      if c > compl.(0) then compl.(0) <- c
    | `Miss -> (
      bump w.counters K.l1_misses 1;
      (match w.ring with
       | Some r -> emit r Telemetry.kind_l1 sm 0 sector t1 0.
       | None -> ());
      let a = t1 +. w.l1_lat in
      let t2 = if a >= clk.(0) then a else clk.(0) in
      clk.(0) <- t2 +. w.inv_l2_tp;
      match Cache.access w.l2 ~sector with
      | `Hit ->
        bump w.counters K.l2_hits 1;
        (match w.ring with
         | Some r -> emit r Telemetry.kind_l2 sm 1 sector t2 w.l2_lat
         | None -> ());
        let c = t2 +. w.l2_lat in
        if c > compl.(0) then compl.(0) <- c
      | `Miss ->
        bump w.counters K.l2_misses 1;
        (match w.ring with
         | Some r -> emit r Telemetry.kind_l2 sm 0 sector t2 0.
         | None -> ());
        bump w.counters K.dram_sectors 2;
        ignore (Cache.access w.l2 ~sector:(sector lxor 1));
        let b = t2 +. w.l2_lat in
        let t3 = if b >= clk.(1) then b else clk.(1) in
        clk.(1) <- t3 +. w.dram_pair_cost;
        (match w.ring with
         | Some r -> emit r Telemetry.kind_dram sm 2 sector t3 w.dram_lat
         | None -> ());
        let c = t3 +. w.dram_lat in
        if c > compl.(0) then compl.(0) <- c)
  done

(* The store walk: the translation delays the sector's L2 arbitration
   (a store cannot reach L2 before its page does). Store events are
   instants: the warp does not wait on them. *)
let store_walk w sm n =
  let t0 = w.compl.(0) in
  let clk = w.clk in
  for i = 0 to n - 1 do
    let sector = Array.unsafe_get w.scratch i in
    let a =
      match w.vm with
      | None -> t0
      | Some vm ->
        let code = Repro_vm.Vm.lookup vm ~sm ~sector in
        let tx = Array.unsafe_get w.vm_lat code in
        count_lookup w sm sector code t0 tx;
        t0 +. tx
    in
    let t2 = if a >= clk.(0) then a else clk.(0) in
    clk.(0) <- t2 +. w.inv_l2_tp;
    match Cache.access w.l2 ~sector with
    | `Hit -> (
      match w.ring with
      | Some r -> emit r Telemetry.kind_l2 sm 3 sector t2 0.
      | None -> ())
    | `Miss ->
      (match w.ring with
       | Some r -> emit r Telemetry.kind_l2 sm 2 sector t2 0.
       | None -> ());
      bump w.counters K.dram_sectors 1;
      let t3 = if t2 >= clk.(1) then t2 else clk.(1) in
      clk.(1) <- t3 +. w.inv_dram_cost;
      (match w.ring with
       | Some r -> emit r Telemetry.kind_dram sm 1 sector t3 0.
       | None -> ())
  done

(* Restore the heap invariant from the root after its entry was
   replaced. 4-ary with a hole sift (save the root entry, pull
   min-children up, place once): half the depth and a third of the array
   writes of a binary swap sift. Entries order lexicographically by
   (key, seq), so the pop order is the same for any exact min-queue. *)
let sift_down_root (hkeys : float array) (hseqs : int array) (hvals : int array)
    n =
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

let run ?telemetry ?await (cfg : Config.t) mem_path ~stats ~traces =
  Config.validate cfg;
  let n_warps = Array.length traces in
  if n_warps = 0 then 0.
  else begin
    Mem_path.begin_kernel mem_path;
    let n_sms = cfg.n_sms in
    let issue_clock = Array.make n_sms 0. in
    let pcs = Array.make n_warps 0 in
    (* Per-warp trace columns, read when the warp activates. [lens] is
       the logical length, so an in-bounds [pc] indexes every column
       safely (unsafe gets). *)
    let lens = Array.make n_warps 0 in
    let ops = Array.make n_warps [||] in
    let lbls = Array.make n_warps [||] in
    let acts = Array.make n_warps [||] in
    let reps = Array.make n_warps [||] in
    let blks = Array.make n_warps [||] in
    let aoffs = Array.make n_warps [||] in
    let arenas = Array.make n_warps [||] in
    let activate w =
      (match await with Some f -> f w | None -> ());
      let tr = traces.(w) in
      lens.(w) <- Trace.length tr;
      ops.(w) <- Trace.Raw.op_col tr;
      lbls.(w) <- Trace.Raw.lbl_col tr;
      acts.(w) <- Trace.Raw.act_col tr;
      reps.(w) <- Trace.Raw.rep_col tr;
      blks.(w) <- Trace.Raw.blk_col tr;
      aoffs.(w) <- Trace.Raw.aoff_col tr;
      arenas.(w) <- Trace.arena tr
    in
    (* Memory-path state and precomputed costs. *)
    let scratch = Mem_path.Raw.scratch mem_path in
    let l1s = Mem_path.Raw.l1s mem_path in
    let l2 = Mem_path.Raw.l2 mem_path in
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
    let sampler, ring =
      match telemetry with
      | Some tel -> (tel.Telemetry.sampler, tel.Telemetry.ring)
      | None -> (None, None)
    in
    (* With sampling on, counters flow into the open window's row; the
       infinity cell makes the per-pop compare uniform when it is off.
       Float stalls and walk cycles stream straight into the row;
       integer counters stay launch-local until the next flush. *)
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
    let counters = Array.make (C.size Stats.table) 0 in
    let stall_first = K.stalls.C.first in
    let ld_first = K.load_transactions_by_label.C.first in
    (* Load completion mailbox and kernel finish time: float-array cells,
       which never box on store. *)
    let compl = Array.make 1 0. in
    let finish = Array.make 1 0. in
    let vm = Mem_path.vm mem_path in
    let slow =
      if Option.is_none vm && Option.is_none ring then None
      else
        Some
          {
            vm;
            ring;
            vm_lat = Mem_path.Raw.vm_lat mem_path;
            scratch;
            l1s;
            l2;
            l1_next_free;
            clk;
            inv_l1_tp;
            inv_l2_tp;
            inv_dram_cost;
            dram_pair_cost;
            l1_lat;
            l2_lat;
            dram_lat;
            compl;
            counters;
            cur;
          }
    in
    (* The ready queue: a replace-top heap of warp indices keyed by
       (ready time, push sequence). Every pop is followed by at most one
       push (the re-issue or an activation), serviced as one root sift,
       so capacity [n_warps] suffices. *)
    let hkeys = Array.make n_warps 0. in
    let hseqs = Array.make n_warps 0 in
    let hvals = Array.make n_warps 0 in
    let hlen = ref 0 in
    let hseq = ref 0 in
    (* Warps are dealt round-robin to SMs; each SM activates its first
       [max_warps_per_sm] immediately and queues the rest. The initial
       pushes all carry key 0 with ascending seqs, so appending in order
       already satisfies the heap invariant. *)
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
          activate w;
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
      if ready >= bcell.(0) then begin
        match sampler with
        | Some s ->
          flush_counters !cur counters;
          Telemetry.Sampler.advance s ~now:ready;
          cur := Telemetry.Sampler.current s
        | None -> ()
      end;
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
            sift_down_root hkeys hseqs hvals n
          end
        | w' :: rest ->
          pending.(sm) <- rest;
          activate w';
          hkeys.(0) <- ready;
          hseqs.(0) <- !hseq;
          hvals.(0) <- w';
          incr hseq;
          sift_down_root hkeys hseqs hvals !hlen
      end
      else begin
        Array.unsafe_set pcs w (pc + 1);
        let op = Array.unsafe_get (Array.unsafe_get ops w) pc in
        let lbl = Array.unsafe_get (Array.unsafe_get lbls w) pc in
        let rep = Array.unsafe_get (Array.unsafe_get reps w) pc in
        if op = Trace.op_compute then bump counters K.instructions_compute rep
        else if op = Trace.op_ctrl || op >= Trace.op_call_indirect then
          bump counters K.instructions_ctrl rep
        else bump counters K.instructions_mem rep;
        let ic = Array.unsafe_get issue_clock sm in
        let issue_time = if ready >= ic then ready else ic in
        let slots = float_of_int rep *. issue_cost in
        Array.unsafe_set issue_clock sm (issue_time +. slots);
        let next_ready =
          if op = Trace.op_load || op = Trace.op_store then begin
            let n =
              Coalesce.sectors_into_unsafe ~buf:scratch
                (Array.unsafe_get arenas w)
                ~off:(Array.unsafe_get (Array.unsafe_get aoffs w) pc)
                ~len:(Array.unsafe_get (Array.unsafe_get acts w) pc)
            in
            (* LSU acceptance: the access starts once the SM's LSU is
               free and holds it for max(issue slot, sector drain). *)
            let lf = Array.unsafe_get lsu_next_free sm in
            let t0 = if issue_time >= lf then issue_time else lf in
            let occ = Array.unsafe_get n_over_l1 n in
            Array.unsafe_set lsu_next_free sm
              (t0 +. if inv_lsu_tp >= occ then inv_lsu_tp else occ);
            compl.(0) <- t0;
            if op = Trace.op_load then begin
              bump counters K.load_transactions n;
              let i = ld_first + lbl in
              Array.unsafe_set counters i (Array.unsafe_get counters i + n);
              (match slow with
               | Some w -> load_walk w sm n
               | None ->
                 let l1 = Array.unsafe_get l1s sm in
                 for i = 0 to n - 1 do
                   let sector = Array.unsafe_get scratch i in
                   let lnf = Array.unsafe_get l1_next_free sm in
                   let t1 = if t0 >= lnf then t0 else lnf in
                   Array.unsafe_set l1_next_free sm (t1 +. inv_l1_tp);
                   match Cache.access l1 ~sector with
                   | `Hit ->
                     bump counters K.l1_hits 1;
                     let c = t1 +. l1_lat in
                     if c > compl.(0) then compl.(0) <- c
                   | `Miss -> (
                     bump counters K.l1_misses 1;
                     let a = t1 +. l1_lat in
                     let t2 = if a >= clk.(0) then a else clk.(0) in
                     clk.(0) <- t2 +. inv_l2_tp;
                     match Cache.access l2 ~sector with
                     | `Hit ->
                       bump counters K.l2_hits 1;
                       let c = t2 +. l2_lat in
                       if c > compl.(0) then compl.(0) <- c
                     | `Miss ->
                       (* DRAM is read at 64 B granularity (Volta's L2
                          fill size): the missing sector and its pair
                          are both fetched and installed. *)
                       bump counters K.l2_misses 1;
                       bump counters K.dram_sectors 2;
                       ignore (Cache.access l2 ~sector:(sector lxor 1));
                       let b = t2 +. l2_lat in
                       let t3 = if b >= clk.(1) then b else clk.(1) in
                       clk.(1) <- t3 +. dram_pair_cost;
                       let c = t3 +. dram_lat in
                       if c > compl.(0) then compl.(0) <- c)
                 done);
              if Array.unsafe_get (Array.unsafe_get blks w) pc <> 0 then
                compl.(0)
              else issue_time +. slots
            end
            else begin
              bump counters K.store_transactions n;
              (match slow with
               | Some w -> store_walk w sm n
               | None ->
                 (* Write-through: every store sector takes L2 bandwidth
                    and is installed there; an L2 miss also takes DRAM
                    bandwidth. *)
                 for i = 0 to n - 1 do
                   let sector = Array.unsafe_get scratch i in
                   let t2 = if t0 >= clk.(0) then t0 else clk.(0) in
                   clk.(0) <- t2 +. inv_l2_tp;
                   match Cache.access l2 ~sector with
                   | `Hit -> ()
                   | `Miss ->
                     bump counters K.dram_sectors 1;
                     let t3 = if t2 >= clk.(1) then t2 else clk.(1) in
                     clk.(1) <- t3 +. inv_dram_cost
                 done);
              issue_time +. slots
            end
          end
          else if op = Trace.op_compute then
            if Array.unsafe_get (Array.unsafe_get blks w) pc <> 0 then
              (* A dependent ALU chain: each op waits on the previous. *)
              issue_time +. float_of_int (rep * compute_latency)
            else issue_time +. slots
          else if op = Trace.op_ctrl then issue_time +. ctrl_lat
          else if op = Trace.op_const_load then issue_time +. const_lat
          else if op = Trace.op_call_indirect then issue_time +. call_ind_lat
          else issue_time +. call_dir_lat
        in
        let stall = next_ready -. issue_time -. slots in
        if stall > 0. then begin
          let sa = (!cur :> float array) and i = stall_first + lbl in
          Array.unsafe_set sa i (Array.unsafe_get sa i +. stall);
          match ring with
          | Some r ->
            (* Stall span, written field by field: its start is
               (base + issue) + slots, which [emit] would round as
               base + (issue + slots). *)
            let i = r.Event_ring.head in
            r.Event_ring.kind.(i) <- Telemetry.kind_stall;
            r.Event_ring.track.(i) <- sm;
            r.Event_ring.arg_a.(i) <- lbl;
            r.Event_ring.arg_b.(i) <- w;
            let t0 = r.Event_ring.cells.(0) +. issue_time +. slots in
            r.Event_ring.ts.(i) <- t0;
            r.Event_ring.dur.(i) <- stall;
            let e = t0 +. stall in
            if e > r.Event_ring.cells.(1) then
              r.Event_ring.cells.(1) <- e;
            Event_ring.bump r
          | None -> ()
        end;
        hkeys.(0) <- next_ready;
        hseqs.(0) <- !hseq;
        incr hseq;
        sift_down_root hkeys hseqs hvals !hlen
      end
    done;
    flush_counters !cur counters;
    finish.(0)
  end

(* Kept under its old name because the benchmark harness calls it. *)
let run_fused cfg mem_path ~stats ~traces = run cfg mem_path ~stats ~traces
