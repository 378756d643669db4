type t = {
  mutable cycles : float;
  mutable mem_instrs : int;
  mutable compute_instrs : int;
  mutable ctrl_instrs : int;
  mutable load_transactions : int;
  mutable store_transactions : int;
  mutable l1_hits : int;
  mutable l1_misses : int;
  mutable l2_hits : int;
  mutable l2_misses : int;
  mutable dram_sectors : int;
  mutable trace_dropped : int;
  (* Address translation (zero when no page policy is active). *)
  mutable tlb_l1_hits : int;
  mutable tlb_l2_hits : int;
  mutable tlb_walks : int;
  mutable tlb_walk_cycles : float;
  stalls : float array; (* indexed by Label.to_index *)
  load_transactions_by_label : int array;
  san_violations : int array; (* indexed by Repro_san.Violation.kind_index *)
}

let create () =
  {
    cycles = 0.;
    mem_instrs = 0;
    compute_instrs = 0;
    ctrl_instrs = 0;
    load_transactions = 0;
    store_transactions = 0;
    l1_hits = 0;
    l1_misses = 0;
    l2_hits = 0;
    l2_misses = 0;
    dram_sectors = 0;
    trace_dropped = 0;
    tlb_l1_hits = 0;
    tlb_l2_hits = 0;
    tlb_walks = 0;
    tlb_walk_cycles = 0.;
    stalls = Array.make Label.count 0.;
    load_transactions_by_label = Array.make Label.count 0;
    san_violations = Array.make Repro_san.Violation.kind_count 0;
  }

let reset t =
  t.cycles <- 0.;
  t.mem_instrs <- 0;
  t.compute_instrs <- 0;
  t.ctrl_instrs <- 0;
  t.load_transactions <- 0;
  t.store_transactions <- 0;
  t.l1_hits <- 0;
  t.l1_misses <- 0;
  t.l2_hits <- 0;
  t.l2_misses <- 0;
  t.dram_sectors <- 0;
  t.trace_dropped <- 0;
  t.tlb_l1_hits <- 0;
  t.tlb_l2_hits <- 0;
  t.tlb_walks <- 0;
  t.tlb_walk_cycles <- 0.;
  Array.fill t.stalls 0 Label.count 0.;
  Array.fill t.load_transactions_by_label 0 Label.count 0;
  Array.fill t.san_violations 0 Repro_san.Violation.kind_count 0

let add acc x =
  acc.cycles <- acc.cycles +. x.cycles;
  acc.mem_instrs <- acc.mem_instrs + x.mem_instrs;
  acc.compute_instrs <- acc.compute_instrs + x.compute_instrs;
  acc.ctrl_instrs <- acc.ctrl_instrs + x.ctrl_instrs;
  acc.load_transactions <- acc.load_transactions + x.load_transactions;
  acc.store_transactions <- acc.store_transactions + x.store_transactions;
  acc.l1_hits <- acc.l1_hits + x.l1_hits;
  acc.l1_misses <- acc.l1_misses + x.l1_misses;
  acc.l2_hits <- acc.l2_hits + x.l2_hits;
  acc.l2_misses <- acc.l2_misses + x.l2_misses;
  acc.dram_sectors <- acc.dram_sectors + x.dram_sectors;
  acc.trace_dropped <- acc.trace_dropped + x.trace_dropped;
  acc.tlb_l1_hits <- acc.tlb_l1_hits + x.tlb_l1_hits;
  acc.tlb_l2_hits <- acc.tlb_l2_hits + x.tlb_l2_hits;
  acc.tlb_walks <- acc.tlb_walks + x.tlb_walks;
  acc.tlb_walk_cycles <- acc.tlb_walk_cycles +. x.tlb_walk_cycles;
  Array.iteri (fun i v -> acc.stalls.(i) <- acc.stalls.(i) +. v) x.stalls;
  Array.iteri
    (fun i v ->
      acc.load_transactions_by_label.(i) <- acc.load_transactions_by_label.(i) + v)
    x.load_transactions_by_label;
  Array.iteri
    (fun i v -> acc.san_violations.(i) <- acc.san_violations.(i) + v)
    x.san_violations

let copy t =
  let c = create () in
  add c t;
  c

let count_classified t cls n =
  match cls with
  | `Mem -> t.mem_instrs <- t.mem_instrs + n
  | `Compute -> t.compute_instrs <- t.compute_instrs + n
  | `Ctrl -> t.ctrl_instrs <- t.ctrl_instrs + n

let count_instr t instr =
  count_classified t (Instr.class_of instr) (Instr.instruction_count instr)

let count_load_transactions_idx t label_index n =
  t.load_transactions <- t.load_transactions + n;
  t.load_transactions_by_label.(label_index)
  <- t.load_transactions_by_label.(label_index) + n

let count_load_transactions t label n =
  count_load_transactions_idx t (Label.to_index label) n

let count_store_transactions t n = t.store_transactions <- t.store_transactions + n

let count_l1 t ~hit =
  if hit then t.l1_hits <- t.l1_hits + 1 else t.l1_misses <- t.l1_misses + 1

let count_l2 t ~hit =
  if hit then t.l2_hits <- t.l2_hits + 1 else t.l2_misses <- t.l2_misses + 1

let count_dram_sector t = t.dram_sectors <- t.dram_sectors + 1

let count_trace_dropped t n = t.trace_dropped <- t.trace_dropped + n

let count_tlb_l1_hit t = t.tlb_l1_hits <- t.tlb_l1_hits + 1

let count_tlb_l2_hit t = t.tlb_l2_hits <- t.tlb_l2_hits + 1

let count_tlb_walk t cycles =
  t.tlb_walks <- t.tlb_walks + 1;
  t.tlb_walk_cycles <- t.tlb_walk_cycles +. cycles

let count_san_violations t deltas =
  if Array.length deltas <> Repro_san.Violation.kind_count then
    invalid_arg "Stats.count_san_violations: delta width mismatch";
  Array.iteri
    (fun i v -> t.san_violations.(i) <- t.san_violations.(i) + v)
    deltas

let san_violations_for t kind =
  t.san_violations.(Repro_san.Violation.kind_index kind)

let total_san_violations t = Array.fold_left ( + ) 0 t.san_violations

let attribute_stall t label cycles =
  let i = Label.to_index label in
  t.stalls.(i) <- t.stalls.(i) +. cycles

let stall_accumulator t = t.stalls

let load_transactions_accumulator t = t.load_transactions_by_label

(* One flush per replayed launch from the fused loop's local counters;
   integer adds, so the totals are exactly what per-instruction counting
   would have produced. *)
let bump_replay_counters t ~mem ~compute ~ctrl ~load_trans ~store_trans
    ~l1_hits ~l1_misses ~l2_hits ~l2_misses ~dram_sectors =
  t.mem_instrs <- t.mem_instrs + mem;
  t.compute_instrs <- t.compute_instrs + compute;
  t.ctrl_instrs <- t.ctrl_instrs + ctrl;
  t.load_transactions <- t.load_transactions + load_trans;
  t.store_transactions <- t.store_transactions + store_trans;
  t.l1_hits <- t.l1_hits + l1_hits;
  t.l1_misses <- t.l1_misses + l1_misses;
  t.l2_hits <- t.l2_hits + l2_hits;
  t.l2_misses <- t.l2_misses + l2_misses;
  t.dram_sectors <- t.dram_sectors + dram_sectors

let bump_tlb_counters t ~l1_hits ~l2_hits ~walks ~walk_cycles_total =
  t.tlb_l1_hits <- t.tlb_l1_hits + l1_hits;
  t.tlb_l2_hits <- t.tlb_l2_hits + l2_hits;
  t.tlb_walks <- t.tlb_walks + walks;
  t.tlb_walk_cycles <- walk_cycles_total

let add_cycles t c = t.cycles <- t.cycles +. c

let cycles t = t.cycles

let instructions t = function
  | `Mem -> t.mem_instrs
  | `Compute -> t.compute_instrs
  | `Ctrl -> t.ctrl_instrs

let total_instructions t = t.mem_instrs + t.compute_instrs + t.ctrl_instrs

let load_transactions t = t.load_transactions

let load_transactions_for t label = t.load_transactions_by_label.(Label.to_index label)

let store_transactions t = t.store_transactions

let l1_hits t = t.l1_hits

let l1_misses t = t.l1_misses

let l2_hits t = t.l2_hits

let l2_misses t = t.l2_misses

let l1_accesses t = t.l1_hits + t.l1_misses

let hit_rate hits misses =
  let total = hits + misses in
  if total = 0 then 0. else float_of_int hits /. float_of_int total

let l1_hit_rate t = hit_rate t.l1_hits t.l1_misses

let l2_hit_rate t = hit_rate t.l2_hits t.l2_misses

let dram_sectors t = t.dram_sectors

let trace_dropped t = t.trace_dropped

let tlb_l1_hits t = t.tlb_l1_hits

let tlb_l2_hits t = t.tlb_l2_hits

let tlb_walks t = t.tlb_walks

let tlb_walk_cycles t = t.tlb_walk_cycles

let tlb_lookups t = t.tlb_l1_hits + t.tlb_l2_hits + t.tlb_walks

let stall_cycles t label = t.stalls.(Label.to_index label)

let total_stall_cycles t = Array.fold_left ( +. ) 0. t.stalls

let pp ppf t =
  Format.fprintf ppf
    "@[<v>cycles=%.0f instrs(mem/cmp/ctl)=%d/%d/%d ld-trans=%d st-trans=%d \
     L1=%.1f%% L2=%.1f%% dram=%d"
    t.cycles t.mem_instrs t.compute_instrs t.ctrl_instrs t.load_transactions
    t.store_transactions (100. *. l1_hit_rate t) (100. *. l2_hit_rate t)
    t.dram_sectors;
  (* Stall attribution, driven by the label enumeration rather than one
     format string per label (the registry view lives in Repro_obs.Metric). *)
  let total_stalls = total_stall_cycles t in
  if total_stalls > 0. then begin
    Format.fprintf ppf "@,stalls:";
    List.iter
      (fun l ->
        let s = stall_cycles t l in
        if s > 0. then
          Format.fprintf ppf " %s=%.1f%%" (Label.slug l) (100. *. s /. total_stalls))
      Label.all
  end;
  if tlb_lookups t > 0 then
    Format.fprintf ppf "@,tlb: l1=%d l2=%d walks=%d walk-cycles=%.0f"
      t.tlb_l1_hits t.tlb_l2_hits t.tlb_walks t.tlb_walk_cycles;
  if total_san_violations t > 0 then begin
    Format.fprintf ppf "@,san violations:";
    List.iter
      (fun k ->
        let n = san_violations_for t k in
        if n > 0 then
          Format.fprintf ppf " %s=%d" (Repro_san.Violation.kind_slug k) n)
      Repro_san.Violation.kinds
  end;
  Format.fprintf ppf "@]"

(* Wire form. [raw] mirrors [t] field-for-field; it is defined last so
   the record-label inference above keeps resolving to [t]. *)

type raw = {
  cycles : float;
  mem_instrs : int;
  compute_instrs : int;
  ctrl_instrs : int;
  load_transactions : int;
  store_transactions : int;
  l1_hits : int;
  l1_misses : int;
  l2_hits : int;
  l2_misses : int;
  dram_sectors : int;
  trace_dropped : int;
  tlb_l1_hits : int;
  tlb_l2_hits : int;
  tlb_walks : int;
  tlb_walk_cycles : float;
  stalls : float array;
  load_transactions_by_label : int array;
  san_violations : int array;
}

let to_raw (t : t) : raw =
  {
    cycles = t.cycles;
    mem_instrs = t.mem_instrs;
    compute_instrs = t.compute_instrs;
    ctrl_instrs = t.ctrl_instrs;
    load_transactions = t.load_transactions;
    store_transactions = t.store_transactions;
    l1_hits = t.l1_hits;
    l1_misses = t.l1_misses;
    l2_hits = t.l2_hits;
    l2_misses = t.l2_misses;
    dram_sectors = t.dram_sectors;
    trace_dropped = t.trace_dropped;
    tlb_l1_hits = t.tlb_l1_hits;
    tlb_l2_hits = t.tlb_l2_hits;
    tlb_walks = t.tlb_walks;
    tlb_walk_cycles = t.tlb_walk_cycles;
    stalls = Array.copy t.stalls;
    load_transactions_by_label = Array.copy t.load_transactions_by_label;
    san_violations = Array.copy t.san_violations;
  }

let of_raw (r : raw) : t =
  if Array.length r.stalls <> Label.count then
    invalid_arg "Stats.of_raw: stalls length";
  if Array.length r.load_transactions_by_label <> Label.count then
    invalid_arg "Stats.of_raw: load_transactions_by_label length";
  if Array.length r.san_violations <> Repro_san.Violation.kind_count then
    invalid_arg "Stats.of_raw: san_violations length";
  {
    cycles = r.cycles;
    mem_instrs = r.mem_instrs;
    compute_instrs = r.compute_instrs;
    ctrl_instrs = r.ctrl_instrs;
    load_transactions = r.load_transactions;
    store_transactions = r.store_transactions;
    l1_hits = r.l1_hits;
    l1_misses = r.l1_misses;
    l2_hits = r.l2_hits;
    l2_misses = r.l2_misses;
    dram_sectors = r.dram_sectors;
    trace_dropped = r.trace_dropped;
    tlb_l1_hits = r.tlb_l1_hits;
    tlb_l2_hits = r.tlb_l2_hits;
    tlb_walks = r.tlb_walks;
    tlb_walk_cycles = r.tlb_walk_cycles;
    stalls = Array.copy r.stalls;
    load_transactions_by_label = Array.copy r.load_transactions_by_label;
    san_violations = Array.copy r.san_violations;
  }
