(* The assembled translation model: one page table, per-SM L1 TLBs, one
   shared L2 TLB, and the latencies [Mem_path] charges per outcome.

   [lookup] is the replay-path entry point and returns a small integer
   code instead of a variant so the caller can branch and index a
   precomputed latency array without boxing anything:

     0                        L1 TLB hit (translation pipelined, free)
     1                        L2 TLB hit
     walk_base + levels       full walk of [levels] radix levels

   Unmapped sectors are charged a full [Page_table.max_levels] walk and
   never cached — the timing model stays total, and the sanitizer's
   page-table hook is what reports them as violations. *)

type config = {
  l1_sets : int;
  l1_ways : int;
  l2_sets : int;
  l2_ways : int;
  l2_latency : float;
  walk_latency_per_level : float;
}

(* Reach at 4 KB: 32-entry L1 = 128 KB per SM, 512-entry shared L2 =
   2 MB; latencies in the rough proportion GPU TLB studies (Mosaic,
   GPUMMU) report against this config's 160-cycle L2 data latency. *)
let default_config =
  {
    l1_sets = 8;
    l1_ways = 4;
    l2_sets = 128;
    l2_ways = 4;
    l2_latency = 30.;
    walk_latency_per_level = 60.;
  }

let validate_config c =
  if c.l1_sets <= 0 || c.l1_sets land (c.l1_sets - 1) <> 0 then
    invalid_arg "Vm.create: l1_sets must be a positive power of two";
  if c.l2_sets <= 0 || c.l2_sets land (c.l2_sets - 1) <> 0 then
    invalid_arg "Vm.create: l2_sets must be a positive power of two";
  if c.l1_ways <= 0 || c.l2_ways <= 0 then
    invalid_arg "Vm.create: TLB ways must be positive";
  if c.l2_latency < 0. || c.walk_latency_per_level < 0. then
    invalid_arg "Vm.create: TLB latencies must be non-negative"

type t = {
  cfg : config;
  table : Page_table.t;
  l1s : Tlb.t array;
  l2 : Tlb.t;
  (* The span of the last mapped lookup: [Page_table.page_key]'s hint,
     kept here so the table itself is never written. *)
  mutable hint : int;
}

let create ?(config = default_config) ~n_sms ~table () =
  validate_config config;
  if n_sms <= 0 then invalid_arg "Vm.create: n_sms must be positive";
  {
    cfg = config;
    table;
    l1s =
      Array.init n_sms (fun _ ->
          Tlb.create ~sets:config.l1_sets ~ways:config.l1_ways);
    l2 = Tlb.create ~sets:config.l2_sets ~ways:config.l2_ways;
    hint = 0;
  }

let hit_l1 = 0
let hit_l2 = 1
let walk_base = 2
let max_code = walk_base + Page_table.max_levels

let lookup t ~sm ~sector =
  let key = Page_table.page_key t.table ~hint:t.hint sector in
  if key < 0 then walk_base + Page_table.max_levels
  else begin
    let span = key lsr Page_table.span_key_shift in
    t.hint <- span;
    if Tlb.access (Array.unsafe_get t.l1s sm) ~key then hit_l1
    else if Tlb.access t.l2 ~key then hit_l2
    else walk_base + Page_table.levels_of t.table span
  end

let latency_of_code t code =
  if code <= hit_l1 then 0.
  else if code = hit_l2 then t.cfg.l2_latency
  else
    t.cfg.l2_latency
    +. (float_of_int (code - walk_base) *. t.cfg.walk_latency_per_level)

let flush_l1s t = Array.iter Tlb.flush t.l1s

let flush t =
  flush_l1s t;
  Tlb.flush t.l2

let table t = t.table
let config t = t.cfg
let n_sms t = Array.length t.l1s
