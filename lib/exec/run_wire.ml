module W = Repro_workloads
module G = Repro_gpu
module J = Repro_obs.Json
module D = Repro_obs.Json.Decode

(* --- Stats wire form ------------------------------------------------------

   [Stats]' counter table declares the form (see [Json.of_counters]):
   scalars by wire key, then the two label-indexed families and the
   violation-kind family as objects keyed by slug with zero entries
   omitted, so the format survives enum reordering and stays readable.
   Ints ride as JSON ints and floats in the shortest-exact form, so a
   decoded snapshot equals the original bit for bit. *)

let stats_to_json (stats : G.Stats.t) =
  J.of_counters G.Stats.table (stats :> float array)

let stats_decoder j =
  let s = G.Stats.create () in
  D.counters G.Stats.table (s :> float array) j;
  s

(* --- Harness.run wire form ------------------------------------------------ *)

let alloc_stats_to_json (a : Repro_core.Allocator.stats) =
  J.Obj
    [
      ("objects", J.Int a.Repro_core.Allocator.objects);
      ("live_objects", J.Int a.Repro_core.Allocator.live_objects);
      ("reserved_bytes", J.Int a.Repro_core.Allocator.reserved_bytes);
      ("used_bytes", J.Int a.Repro_core.Allocator.used_bytes);
      ("padded_bytes", J.Int a.Repro_core.Allocator.padded_bytes);
      ("alloc_cycles", J.Float a.Repro_core.Allocator.alloc_cycles);
      ("free_cycles", J.Float a.Repro_core.Allocator.free_cycles);
      ( "bitmap_scan_cycles",
        J.Float a.Repro_core.Allocator.bitmap_scan_cycles );
    ]

let alloc_stats_decoder j =
  let objects = D.field "objects" D.int j in
  {
    Repro_core.Allocator.objects;
    (* The capability counters default for leniency toward pre-alloc-
       family peers (the envelope version still gates real skew). *)
    live_objects = D.field_default "live_objects" D.int objects j;
    reserved_bytes = D.field "reserved_bytes" D.int j;
    used_bytes = D.field "used_bytes" D.int j;
    padded_bytes = D.field_default "padded_bytes" D.int 0 j;
    alloc_cycles = D.field "alloc_cycles" D.float j;
    free_cycles = D.field_default "free_cycles" D.float 0. j;
    bitmap_scan_cycles = D.field_default "bitmap_scan_cycles" D.float 0. j;
  }

let run_to_json (r : W.Harness.run) =
  J.Obj
    [
      ("workload", J.String r.W.Harness.workload);
      ( "technique",
        J.String (Request.technique_to_string r.W.Harness.technique) );
      ( "alloc",
        J.String (Repro_core.Alloc_family.name r.W.Harness.alloc) );
      ("cycles", J.Float r.W.Harness.cycles);
      ("checksum", J.Int r.W.Harness.checksum);
      ("result", J.Int r.W.Harness.result);
      ("n_objects", J.Int r.W.Harness.n_objects);
      ("n_types", J.Int r.W.Harness.n_types);
      ("n_vfuncs", J.Int r.W.Harness.n_vfuncs);
      ("vfunc_pki", J.Float r.W.Harness.vfunc_pki);
      ("warp_vcalls", J.Int r.W.Harness.warp_vcalls);
      ("alloc_stats", alloc_stats_to_json r.W.Harness.alloc_stats);
      ("stats", stats_to_json r.W.Harness.stats);
    ]

let technique_decoder j =
  let s = D.string j in
  match Request.technique_of_string s with
  | Ok t -> t
  | Error msg -> D.fail msg

let alloc_family_decoder j =
  let s = D.string j in
  match Repro_core.Alloc_family.of_string s with
  | Ok fam -> fam
  | Error msg -> D.fail msg

let run_decoder j =
  let technique = D.field "technique" technique_decoder j in
  {
    W.Harness.workload = D.field "workload" D.string j;
    technique;
    alloc =
      (match D.field_opt "alloc" alloc_family_decoder j with
       | Some fam -> fam
       | None -> Repro_core.Alloc_family.default_for technique);
    cycles = D.field "cycles" D.float j;
    stats = D.field "stats" stats_decoder j;
    (* Only totals ride the wire; an older peer's [kernel_stats] key is
       skipped like any unknown key. Daemon jobs are plain measurement
       jobs (Job.cacheable), which carry no telemetry. *)
    kernel_stats = [];
    window = None;
    kernel_windows = [];
    trace = None;
    checksum = D.field "checksum" D.int j;
    result = D.field "result" D.int j;
    n_objects = D.field "n_objects" D.int j;
    n_types = D.field "n_types" D.int j;
    n_vfuncs = D.field "n_vfuncs" D.int j;
    vfunc_pki = D.field "vfunc_pki" D.float j;
    warp_vcalls = D.field "warp_vcalls" D.int j;
    alloc_stats = D.field "alloc_stats" alloc_stats_decoder j;
  }

(* --- Text form ------------------------------------------------------------ *)

let encode run = J.to_string (run_to_json run)

let decode text = Result.bind (J.of_string text) (D.run run_decoder)
