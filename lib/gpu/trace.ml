(* Structure-of-arrays trace storage.

   One record per dynamic warp instruction, split across flat parallel int
   arrays. A memory instruction is coalesced once, as it is emitted: its
   distinct ascending 32 B sectors go to the sector arena ([secs]) as a
   count-prefixed list, [n] then the [n] sectors, in record order. Its
   canonical per-lane addresses go to the lane arena ([addrs]), which only
   the functional access reads back; sealing drops it. A warp-uniform
   load writes one sector and no lanes. The functional phase grows the
   arrays (amortized doubling); the timing phase replays by index,
   walking each warp's sector arena with a cursor, without allocating. *)

let op_load = 0
let op_store = 1
let op_compute = 2
let op_ctrl = 3
let op_const_load = 4
let op_call_indirect = 5
let op_call_direct = 6

type t = {
  mutable len : int;
  mutable op : int array;        (* op_* opcode *)
  mutable lbl : int array;       (* Label.to_index *)
  mutable act : int array;       (* active lanes when issued *)
  mutable rep : int array;       (* Instr.instruction_count *)
  mutable blk : int array;       (* blocking flag, 0/1 *)
  mutable addrs : int array;     (* the lane arena; empty once sealed *)
  mutable addrs_len : int;
  mutable secs : int array;      (* the sector arena *)
  mutable secs_len : int;
  mutable instr_total : int;     (* running sum of [rep] *)
}

let create ?(capacity = 64) () =
  let capacity = max 1 capacity in
  {
    len = 0;
    op = Array.make capacity 0;
    lbl = Array.make capacity 0;
    act = Array.make capacity 0;
    rep = Array.make capacity 0;
    blk = Array.make capacity 0;
    addrs = Array.make (4 * capacity) 0;
    addrs_len = 0;
    secs = Array.make (4 * capacity) 0;
    secs_len = 0;
    instr_total = 0;
  }

(* Rewind for scratch reuse: the capacity (and any growth) survives, so a
   per-device scratch trace reaches steady state after the largest warp
   and emission stops allocating entirely. *)
let reset t =
  t.len <- 0;
  t.addrs_len <- 0;
  t.secs_len <- 0;
  t.instr_total <- 0

let length t = t.len

let instruction_total t = t.instr_total

(* A copy of [a]'s live prefix [len] in an array of at least [need]
   cells and at least twice [a]'s size. *)
let grown a len need =
  let fresh = Array.make (max (2 * Array.length a) need) 0 in
  Array.blit a 0 fresh 0 len;
  fresh

let grow_records t =
  let extend a = grown a t.len 0 in
  t.op <- extend t.op;
  t.lbl <- extend t.lbl;
  t.act <- extend t.act;
  t.rep <- extend t.rep;
  t.blk <- extend t.blk

let push t ~op ~label ~active ~rep ~blocking =
  if t.len >= Array.length t.op then grow_records t;
  let i = t.len in
  t.op.(i) <- op;
  t.lbl.(i) <- Label.to_index label;
  t.act.(i) <- active;
  t.rep.(i) <- rep;
  t.blk.(i) <- (if blocking then 1 else 0);
  t.len <- i + 1;
  t.instr_total <- t.instr_total + rep

(* Memory emission strips TypePointer tag bits as the addresses land in the
   lane arena — the hardware-MMU view, fused with trace recording so no
   intermediate canonical array is built — then coalesces the stripped
   lanes into the sector arena, where replay reads them. The lane reads
   are bounds-checked here, and both arenas are reserved for the worst
   case ([n] lanes, [1 + n] sector cells), so the coalescer may run
   unchecked. The [_n] variants take an explicit lane count so callers
   can emit straight from a reusable scratch buffer wider than the
   warp. *)
let emit_mem_n t ~op ~label ~blocking addrs n =
  if n = 0 then invalid_arg "Trace.emit_mem: no active lanes";
  let off = t.addrs_len in
  if off + n > Array.length t.addrs then t.addrs <- grown t.addrs off (off + n);
  let arena = t.addrs in
  for k = 0 to n - 1 do
    arena.(off + k) <- addrs.(k) land Repro_mem.Vaddr.va_mask
  done;
  t.addrs_len <- off + n;
  let soff = t.secs_len in
  if soff + 1 + n > Array.length t.secs then
    t.secs <- grown t.secs soff (soff + 1 + n);
  let secs = t.secs in
  let c =
    Coalesce.sectors_into_unsafe ~buf:secs ~dst:(soff + 1) arena ~off ~len:n
  in
  secs.(soff) <- c;
  t.secs_len <- soff + 1 + c;
  push t ~op ~label ~active:n ~rep:1 ~blocking;
  off

(* A load whose [n] active lanes all name [addr]: the record
   [emit_mem_n] would write (its lanes coalesce to one sector) without
   the lane-arena copy or the sort. Returns the stripped address. *)
let emit_load_uniform t ~label ~blocking ~n addr =
  if n = 0 then invalid_arg "Trace.emit_mem: no active lanes";
  let a = addr land Repro_mem.Vaddr.va_mask in
  let soff = t.secs_len in
  if soff + 2 > Array.length t.secs then t.secs <- grown t.secs soff (soff + 2);
  t.secs.(soff) <- 1;
  t.secs.(soff + 1) <- a lsr Repro_mem.Vaddr.sector_shift;
  t.secs_len <- soff + 2;
  push t ~op:op_load ~label ~active:n ~rep:1 ~blocking;
  a

let emit_load_n t ~label ~blocking addrs n =
  emit_mem_n t ~op:op_load ~label ~blocking addrs n

let emit_store t ~label addrs =
  emit_mem_n t ~op:op_store ~label ~blocking:false addrs (Array.length addrs)

let emit_store_n t ~label addrs n =
  emit_mem_n t ~op:op_store ~label ~blocking:false addrs n

let emit_compute t ~label ~n ~blocking ~active =
  if n <= 0 then invalid_arg "Trace.emit_compute: n must be positive";
  push t ~op:op_compute ~label ~active ~rep:n ~blocking

let emit_ctrl t ~label ~n ~active =
  if n <= 0 then invalid_arg "Trace.emit_ctrl: n must be positive";
  push t ~op:op_ctrl ~label ~active ~rep:n ~blocking:false

let emit_const_load t ~label ~active =
  push t ~op:op_const_load ~label ~active ~rep:1 ~blocking:true

let emit_call_indirect t ~label ~active =
  push t ~op:op_call_indirect ~label ~active ~rep:1 ~blocking:true

let emit_call_direct t ~label ~active =
  push t ~op:op_call_direct ~label ~active ~rep:1 ~blocking:true

(* --- replay accessors (no bounds logic beyond the array checks) -------- *)

let op t i = t.op.(i)
let label_index t i = t.lbl.(i)
let active t i = t.act.(i)
let repeat t i = t.rep.(i)
let is_blocking t i = t.blk.(i) <> 0

(* The current arena arrays. Further emission may replace them (growth),
   so fetch them again after any emit; during replay the trace is
   frozen. *)
let lane_arena t = t.addrs
let lane_arena_length t = t.addrs_len
let sector_arena t = t.secs
let sector_arena_length t = t.secs_len

(* --- interning ---------------------------------------------------------

   The paper's workloads are homogeneous per type: every warp over a
   type-sharded (or COAL-sorted) range executes the same instruction
   stream, so a launch's [n_warps] traces collapse to a handful of
   distinct column sets. [Intern.seal] hash-conses the record columns
   (op/lbl/act/rep/blk): warps with identical streams share one physical
   set of column arrays.

   The sector arena is deliberately NOT interned: two warps with the same
   instruction stream still touch different objects, and those sectors
   are what drive cache and TLB state during replay. Their counts differ
   per warp too, so they stay out of the shared columns, and replay finds
   a record's list by walking the arena in record order. Each sealed
   trace therefore carries a private, exact-size copy of the sector
   arena and no lanes: only the functional access read those, and it is
   over. Replay reads columns through the shared arrays and sectors
   through the private arena — exactly what it reads from an unsealed
   trace, so timing is byte-identical by construction. *)
module Intern = struct
  type pool = {
    tbl : (int, t list ref) Hashtbl.t;  (* stream hash -> representatives *)
    mutable sealed : int;
    mutable unique : int;
    mutable sealed_instrs : int;
    mutable unique_instrs : int;
  }

  let create () =
    { tbl = Hashtbl.create 64; sealed = 0; unique = 0; sealed_instrs = 0;
      unique_instrs = 0 }

  let mix h v =
    let h = h lxor (v + 0x9e3779b9 + (h lsl 6) + (h lsr 2)) in
    h land max_int

  let stream_hash tr =
    let h = ref (mix 0 tr.len) in
    for i = 0 to tr.len - 1 do
      h := mix !h tr.op.(i);
      h := mix !h tr.lbl.(i);
      h := mix !h tr.act.(i);
      h := mix !h tr.rep.(i);
      h := mix !h tr.blk.(i)
    done;
    !h

  let same_stream a b =
    a.len = b.len
    &&
    let rec eq i =
      i >= a.len
      || (a.op.(i) = b.op.(i) && a.lbl.(i) = b.lbl.(i)
          && a.act.(i) = b.act.(i) && a.rep.(i) = b.rep.(i)
          && a.blk.(i) = b.blk.(i) && eq (i + 1))
    in
    eq 0

  let seal pool scratch =
    let n = scratch.len in
    let secs = Array.sub scratch.secs 0 scratch.secs_len in
    pool.sealed <- pool.sealed + 1;
    pool.sealed_instrs <- pool.sealed_instrs + scratch.instr_total;
    let h = stream_hash scratch in
    let bucket =
      match Hashtbl.find_opt pool.tbl h with
      | Some b -> b
      | None ->
        let b = ref [] in
        Hashtbl.add pool.tbl h b;
        b
    in
    match List.find_opt (fun r -> same_stream r scratch) !bucket with
    | Some r ->
      (* Column hit: share the representative's arrays, private arena. *)
      { len = n; op = r.op; lbl = r.lbl; act = r.act; rep = r.rep;
        blk = r.blk; addrs = [||]; addrs_len = 0; secs;
        secs_len = scratch.secs_len; instr_total = scratch.instr_total }
    | None ->
      let sub a = Array.sub a 0 n in
      let r =
        { len = n; op = sub scratch.op; lbl = sub scratch.lbl;
          act = sub scratch.act; rep = sub scratch.rep;
          blk = sub scratch.blk; addrs = [||]; addrs_len = 0; secs;
          secs_len = scratch.secs_len; instr_total = scratch.instr_total }
      in
      bucket := r :: !bucket;
      pool.unique <- pool.unique + 1;
      pool.unique_instrs <- pool.unique_instrs + scratch.instr_total;
      r

  let sealed p = p.sealed
  let unique p = p.unique
  let sealed_instrs p = p.sealed_instrs
  let unique_instrs p = p.unique_instrs
end

let shares_columns a b = a.op == b.op

(* Column views for the replay loop: hoisted once per launch so the
   per-instruction reads are direct (unsafe) array loads instead of
   cross-module calls. Only the first [length] records are live. *)
module Raw = struct
  let op_col t = t.op
  let lbl_col t = t.lbl
  let rep_col t = t.rep
  let blk_col t = t.blk
end
