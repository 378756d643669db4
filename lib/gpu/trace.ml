(* Structure-of-arrays trace storage.

   One record per dynamic warp instruction, split across flat parallel int
   arrays; memory instructions keep their per-lane canonical addresses in a
   shared arena ([addrs]) addressed by offset/length. The functional phase
   grows the arrays (amortized doubling); the timing phase replays by index
   without allocating. *)

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
  mutable aoff : int array;      (* arena offset; -1 for non-mem records *)
  mutable addrs : int array;     (* the address arena *)
  mutable addrs_len : int;
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
    aoff = Array.make capacity (-1);
    addrs = Array.make (4 * capacity) 0;
    addrs_len = 0;
    instr_total = 0;
  }

(* Rewind for scratch reuse: the capacity (and any growth) survives, so a
   per-device scratch trace reaches steady state after the largest warp
   and emission stops allocating entirely. *)
let reset t =
  t.len <- 0;
  t.addrs_len <- 0;
  t.instr_total <- 0

let length t = t.len

let instruction_total t = t.instr_total

let grow_records t =
  let cap = 2 * Array.length t.op in
  let extend a fill =
    let fresh = Array.make cap fill in
    Array.blit a 0 fresh 0 t.len;
    fresh
  in
  t.op <- extend t.op 0;
  t.lbl <- extend t.lbl 0;
  t.act <- extend t.act 0;
  t.rep <- extend t.rep 0;
  t.blk <- extend t.blk 0;
  t.aoff <- extend t.aoff (-1)

let reserve_arena t n =
  let cap = Array.length t.addrs in
  if t.addrs_len + n > cap then begin
    let fresh = Array.make (max (2 * cap) (t.addrs_len + n)) 0 in
    Array.blit t.addrs 0 fresh 0 t.addrs_len;
    t.addrs <- fresh
  end

let push t ~op ~label ~active ~rep ~blocking ~aoff =
  if t.len >= Array.length t.op then grow_records t;
  let i = t.len in
  t.op.(i) <- op;
  t.lbl.(i) <- Label.to_index label;
  t.act.(i) <- active;
  t.rep.(i) <- rep;
  t.blk.(i) <- (if blocking then 1 else 0);
  t.aoff.(i) <- aoff;
  t.len <- i + 1;
  t.instr_total <- t.instr_total + rep

(* Memory emission strips TypePointer tag bits as the addresses land in the
   arena — the hardware-MMU view, fused with trace recording so no
   intermediate canonical array is built. The [_n] variants take an
   explicit lane count so callers can emit straight from a reusable
   scratch buffer wider than the warp. *)
let emit_mem_n t ~op ~label ~blocking addrs n =
  if n = 0 then invalid_arg "Trace.emit_mem: no active lanes";
  reserve_arena t n;
  let off = t.addrs_len in
  let arena = t.addrs in
  for k = 0 to n - 1 do
    arena.(off + k) <- addrs.(k) land Repro_mem.Vaddr.va_mask
  done;
  t.addrs_len <- off + n;
  push t ~op ~label ~active:n ~rep:1 ~blocking ~aoff:off;
  off

let emit_mem t ~op ~label ~blocking addrs =
  emit_mem_n t ~op ~label ~blocking addrs (Array.length addrs)

let emit_load t ~label ~blocking addrs =
  emit_mem t ~op:op_load ~label ~blocking addrs

let emit_load_n t ~label ~blocking addrs n =
  emit_mem_n t ~op:op_load ~label ~blocking addrs n

let emit_store t ~label addrs =
  emit_mem t ~op:op_store ~label ~blocking:false addrs

let emit_store_n t ~label addrs n =
  emit_mem_n t ~op:op_store ~label ~blocking:false addrs n

let emit_compute t ~label ~n ~blocking ~active =
  if n <= 0 then invalid_arg "Trace.emit_compute: n must be positive";
  push t ~op:op_compute ~label ~active ~rep:n ~blocking ~aoff:(-1)

let emit_ctrl t ~label ~n ~active =
  if n <= 0 then invalid_arg "Trace.emit_ctrl: n must be positive";
  push t ~op:op_ctrl ~label ~active ~rep:n ~blocking:false ~aoff:(-1)

let emit_const_load t ~label ~active =
  push t ~op:op_const_load ~label ~active ~rep:1 ~blocking:true ~aoff:(-1)

let emit_call_indirect t ~label ~active =
  push t ~op:op_call_indirect ~label ~active ~rep:1 ~blocking:true ~aoff:(-1)

let emit_call_direct t ~label ~active =
  push t ~op:op_call_direct ~label ~active ~rep:1 ~blocking:true ~aoff:(-1)

(* --- replay accessors (no bounds logic beyond the array checks) -------- *)

let op t i = t.op.(i)
let label_index t i = t.lbl.(i)
let active t i = t.act.(i)
let repeat t i = t.rep.(i)
let is_blocking t i = t.blk.(i) <> 0
let addr_off t i = t.aoff.(i)

let arena t = t.addrs
(* The current arena array. Further emission may replace it (growth), so
   fetch it again after any emit; during replay the trace is frozen. *)

(* --- interning ---------------------------------------------------------

   The paper's workloads are homogeneous per type: every warp over a
   type-sharded (or COAL-sorted) range executes the same instruction
   stream, so a launch's [n_warps] traces collapse to a handful of
   distinct column sets. [Intern.seal] hash-conses the record columns
   (op/lbl/act/rep/blk — and aoff, which is a running sum of the act
   column over memory records and therefore equal whenever they are):
   warps with identical streams share one physical set of column arrays.

   The address arena is deliberately NOT interned: two warps with the
   same instruction stream still touch different objects, and those
   per-lane addresses are what drive coalescing, cache and TLB state
   during replay. Each sealed trace therefore carries a private,
   exact-size arena copy. Replay reads columns through the shared arrays
   and addresses through the private arena — structurally identical to an
   un-interned trace, so timing is byte-identical by construction. *)
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
    let addrs = Array.sub scratch.addrs 0 scratch.addrs_len in
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
        blk = r.blk; aoff = r.aoff; addrs;
        addrs_len = scratch.addrs_len; instr_total = scratch.instr_total }
    | None ->
      let sub a = Array.sub a 0 n in
      let r =
        { len = n; op = sub scratch.op; lbl = sub scratch.lbl;
          act = sub scratch.act; rep = sub scratch.rep;
          blk = sub scratch.blk; aoff = sub scratch.aoff; addrs;
          addrs_len = scratch.addrs_len; instr_total = scratch.instr_total }
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
   cross-module calls. Only the first [length] records (and the first
   [arena_length] arena cells) are live. *)
module Raw = struct
  let op_col t = t.op
  let lbl_col t = t.lbl
  let act_col t = t.act
  let rep_col t = t.rep
  let blk_col t = t.blk
  let aoff_col t = t.aoff
end

let arena_length t = t.addrs_len
