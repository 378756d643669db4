module C = Repro_util.Counter_table

let table = C.create ()

module Counter = struct
  (* The first twelve are strict on the wire; the four [tlb.*] counters
     default to zero for peers that predate address translation. *)
  let strict ?key ?float id units =
    C.declare table ?key ?float ~strict:true C.Counter id units

  let lenient ?key ?float id units =
    C.declare table ?key ?float C.Counter id units

  let cycles = strict ~float:true "cycles" "cycles"

  let instructions_mem =
    strict ~key:"mem_instrs" "instructions.mem" "warp_instructions"

  let instructions_compute =
    strict ~key:"compute_instrs" "instructions.compute" "warp_instructions"

  let instructions_ctrl =
    strict ~key:"ctrl_instrs" "instructions.ctrl" "warp_instructions"

  let load_transactions = strict "load_transactions" "sectors"
  let store_transactions = strict "store_transactions" "sectors"
  let l1_hits = strict ~key:"l1_hits" "l1.hits" "accesses"
  let l1_misses = strict ~key:"l1_misses" "l1.misses" "accesses"
  let l2_hits = strict ~key:"l2_hits" "l2.hits" "accesses"
  let l2_misses = strict ~key:"l2_misses" "l2.misses" "accesses"
  let dram_sectors = strict ~key:"dram_sectors" "dram.sectors" "sectors"
  let trace_dropped = strict ~key:"trace_dropped" "trace.dropped" "events"
  let tlb_l1_hits = lenient ~key:"tlb_l1_hits" "tlb.l1_hits" "lookups"
  let tlb_l2_hits = lenient ~key:"tlb_l2_hits" "tlb.l2_hits" "lookups"
  let tlb_walks = lenient ~key:"tlb_walks" "tlb.walks" "walks"

  let tlb_walk_cycles =
    lenient ~float:true ~key:"tlb_walk_cycles" "tlb.walk_cycles" "cycles"

  let label_slugs = List.map Label.slug Label.all

  let stalls =
    C.family table ~float:true ~key:"stalls" "stall_cycles" "cycles" label_slugs

  let load_transactions_by_label =
    C.family table ~key:"load_transactions_by_label" load_transactions.C.id
      "sectors" label_slugs

  let san_violations =
    C.family table "san_violations" "violations"
      (List.map Repro_san.Violation.kind_slug Repro_san.Violation.kinds)

  let sum es v = List.fold_left (fun acc e -> acc +. v.(e.C.slot)) 0. es

  let instructions_total =
    C.computed "instructions.total" "warp_instructions"
      (sum [ instructions_mem; instructions_compute; instructions_ctrl ])

  let rate hits misses v =
    let h = v.(hits.C.slot) in
    let total = h +. v.(misses.C.slot) in
    if total = 0. then 0. else h /. total

  let l1_hit_rate =
    C.computed ~float:true "l1.hit_rate" "ratio" (rate l1_hits l1_misses)

  let l2_hit_rate =
    C.computed ~float:true "l2.hit_rate" "ratio" (rate l2_hits l2_misses)

  let stall_cycles_total =
    C.computed ~float:true "stall_cycles.total" "cycles"
      (sum (Array.to_list stalls.C.members))
end

type t = float array

let size = C.size table
let create () = Array.make size 0.
let reset t = Array.fill t 0 size 0.

let add acc x =
  for i = 0 to size - 1 do
    acc.(i) <- acc.(i) +. x.(i)
  done

let copy = Array.copy

let bump t (e : C.entry) n = t.(e.slot) <- t.(e.slot) +. float_of_int n
let bump_float t (e : C.entry) x = t.(e.slot) <- t.(e.slot) +. x
let add_cycles t c = bump_float t Counter.cycles c

let count_san_violations t deltas =
  if Array.length deltas <> Repro_san.Violation.kind_count then
    invalid_arg "Stats.count_san_violations: delta width mismatch";
  Array.iteri (fun i n -> bump t Counter.san_violations.members.(i) n) deltas

let get t (e : C.entry) = e.read t
let count t e = int_of_float (get t e)
let cycles t = get t Counter.cycles

let instructions t = function
  | `Mem -> count t Counter.instructions_mem
  | `Compute -> count t Counter.instructions_compute
  | `Ctrl -> count t Counter.instructions_ctrl

let total_instructions t = count t Counter.instructions_total
let load_transactions t = count t Counter.load_transactions
let l1_hits t = count t Counter.l1_hits
let l2_hits t = count t Counter.l2_hits
let l2_misses t = count t Counter.l2_misses
let l1_accesses t = l1_hits t + count t Counter.l1_misses
let l1_hit_rate t = get t Counter.l1_hit_rate
let l2_hit_rate t = get t Counter.l2_hit_rate
let dram_sectors t = count t Counter.dram_sectors
let trace_dropped t = count t Counter.trace_dropped
let tlb_l1_hits t = count t Counter.tlb_l1_hits
let tlb_l2_hits t = count t Counter.tlb_l2_hits
let tlb_walks t = count t Counter.tlb_walks
let tlb_walk_cycles t = get t Counter.tlb_walk_cycles
let tlb_lookups t = tlb_l1_hits t + tlb_l2_hits t + tlb_walks t
let stall_cycles t label = get t Counter.stalls.members.(Label.to_index label)
let total_stall_cycles t = get t Counter.stall_cycles_total

let san_violations_for t kind =
  count t Counter.san_violations.members.(Repro_san.Violation.kind_index kind)

let total_san_violations t =
  int_of_float (Counter.sum (Array.to_list Counter.san_violations.members) t)

(* The digest layout: every counter as a plain field. The cell digests
   in the tests and the benchmark hash its marshalled bytes, so its
   fields, their order and their types are frozen. *)
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

let to_raw t =
  let module K = Counter in
  let n e = count t e in
  let ints (f : C.family) = Array.map n f.members in
  {
    cycles = get t K.cycles;
    mem_instrs = n K.instructions_mem;
    compute_instrs = n K.instructions_compute;
    ctrl_instrs = n K.instructions_ctrl;
    load_transactions = n K.load_transactions;
    store_transactions = n K.store_transactions;
    l1_hits = n K.l1_hits;
    l1_misses = n K.l1_misses;
    l2_hits = n K.l2_hits;
    l2_misses = n K.l2_misses;
    dram_sectors = n K.dram_sectors;
    trace_dropped = n K.trace_dropped;
    tlb_l1_hits = n K.tlb_l1_hits;
    tlb_l2_hits = n K.tlb_l2_hits;
    tlb_walks = n K.tlb_walks;
    tlb_walk_cycles = get t K.tlb_walk_cycles;
    stalls = Array.map (get t) K.stalls.members;
    load_transactions_by_label = ints K.load_transactions_by_label;
    san_violations = ints K.san_violations;
  }
