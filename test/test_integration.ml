(* Cross-layer integration tests: harness guarantees, scheduler waves,
   paper-level properties that span modules. *)

module W = Repro_workloads
module E = Repro_experiments
module R = Repro_core
module T = R.Technique
module Warp_ctx = Repro_gpu.Warp_ctx
module Label = Repro_gpu.Label
module Stats = Repro_gpu.Stats
module Device = Repro_gpu.Device
module Config = Repro_gpu.Config
module Page_store = Repro_mem.Page_store

let check = Alcotest.check

(* --- harness ------------------------------------------------------------ *)

(* A deliberately technique-dependent "workload": its result is the
   dispatch technique's name hash, so cross-technique validation must
   reject it. Guards the guard. *)
let treacherous_workload =
  let build (p : W.Workload.params) =
    let rt = R.Runtime.create ~technique:p.W.Workload.technique () in
    let impl = R.Runtime.register_impl rt ~name:"noop" (fun _ _ -> ()) in
    let t = R.Runtime.define_type rt ~name:"T" ~field_words:1 ~slots:[| impl |] () in
    ignore (R.Runtime.new_obj rt t);
    {
      W.Workload.rt;
      iterations = 1;
      run_iteration = (fun _ -> ());
      result = (fun () -> Hashtbl.hash (T.name p.W.Workload.technique));
    }
  in
  {
    W.Workload.name = "TREACHEROUS";
    suite = "test";
    description = "technique-dependent result, must be rejected";
    paper_objects = 1;
    paper_types = 1;
    build;
  }

(* --- the digest ledger ---------------------------------------------------- *)

let render_alloc_stats (s : R.Allocator.stats) =
  Printf.sprintf "objects=%d live=%d reserved=%d used=%d padded=%d alloc=%h free=%h scan=%h"
    s.objects s.live_objects s.reserved_bytes s.used_bytes s.padded_bytes
    s.alloc_cycles s.free_cycles s.bitmap_scan_cycles

(* One row in [Ledger]'s syntax, so a reported line can be pasted. *)
let render_row (r : Ledger.row) =
  Printf.sprintf
    "{ key = %S; result = %d; checksum = %d; alloc = %S; digest = %S; instructions = %d; cycles = %s };"
    r.key r.result r.checksum r.alloc r.digest r.instructions
    (Repro_obs.Json.float_repr r.cycles)

(* The ledger's three job lists, all at scale 0.02, seed 42: the 55
   paper cells, the 22 DynaSOA cells (DYNA and SHARD+DYNA) and the 33
   cells under the [coalesce] page policy. *)
let ledger_jobs () =
  let jobs = E.Sweep.jobs ~scale:0.02 ~seed:42 in
  let col = E.Sweep.column and dyna = R.Alloc_family.Dyna_soa in
  ( jobs ~columns:E.Sweep.paper_columns (),
    jobs ~columns:[ col ~alloc:dyna T.Cuda; col ~alloc:dyna T.Shared_oa ] (),
    jobs ~pages:Repro_vm.Policy.Coalesce
      ~columns:[ col T.Cuda; col T.Shared_oa; col ~alloc:dyna T.Cuda ] () )

(* Measures [jobs] through [Harness.run] (with [~san], each also
   sanitized) and fails once, printing every row that changed or is
   missing, every sanitized run that moved its cell and every job whose
   key does not survive the wire spec. With [~whole], it also prints
   duplicate keys and every row that names no job of [ledger_jobs]. *)
let check_ledger ~san ?(whole = false) jobs =
  let module X = Repro_exec in
  let bad = ref 0 in
  let line s = incr bad; print_endline s in
  let recorded = Hashtbl.create 128 in
  List.iter
    (fun (r : Ledger.row) ->
      if Hashtbl.mem recorded r.key then (if whole then line ("duplicate key: " ^ r.key))
      else Hashtbl.add recorded r.key r)
    Ledger.rows;
  let measure (job : X.Job.t) params =
    let r = W.Harness.run job.workload params in
    {
      Ledger.key = X.Job.key job;
      result = r.result;
      checksum = r.checksum;
      alloc = render_alloc_stats r.alloc_stats;
      digest = Stats.digest r.stats;
      instructions = Stats.total_instructions r.stats;
      cycles = r.cycles;
    }
  in
  let check_job (job : X.Job.t) =
    let key = X.Job.key job in
    (match X.Request.Spec.resolve (X.Request.Spec.of_job job) with
     | Ok j when X.Job.key j = key -> ()
     | Ok j -> line (Printf.sprintf "spec round trip: %s became %s" key (X.Job.key j))
     | Error e -> line (Printf.sprintf "spec round trip: %s: %s" key e));
    let got = measure job job.params in
    (match Hashtbl.find_opt recorded key with
     | Some old when old = got -> ()
     | Some old ->
       line ("old: " ^ render_row old);
       line ("new: " ^ render_row got)
     | None -> line ("new: " ^ render_row got));
    if san then begin
      let checker =
        Repro_san.Checker.create ~tags_expected:(T.tags_pointers job.technique) ()
      in
      let sanitized = measure job { job.params with W.Workload.san = Some checker } in
      if sanitized <> got then begin
        line ("sanitized run differs: " ^ key);
        line ("old: " ^ render_row got);
        line ("new: " ^ render_row sanitized)
      end
    end
  in
  List.iter check_job jobs;
  if whole then begin
    let paper, dyna, coalesce = ledger_jobs () in
    let keys = Hashtbl.create 128 in
    List.iter (fun j -> Hashtbl.replace keys (X.Job.key j) ()) (paper @ dyna @ coalesce);
    List.iter
      (fun (r : Ledger.row) ->
        if not (Hashtbl.mem keys r.key) then line ("old: " ^ render_row r))
      Ledger.rows
  end;
  if !bad > 0 then
    Alcotest.failf "%d line(s) above differ from test/ledger.ml" !bad

let test_paper_cells () =
  let paper, _, _ = ledger_jobs () in
  check_ledger ~san:true paper

let test_dyna_cells () =
  let _, dyna, _ = ledger_jobs () in
  check_ledger ~san:false dyna

let test_cells_match_ledger () =
  let _, _, coalesce = ledger_jobs () in
  check_ledger ~san:false ~whole:true coalesce

let test_harness_rejects_functional_mismatch () =
  match
    E.Sweep.exec ~scale:1.0 ~workloads:[ treacherous_workload ]
      ~columns:[ E.Sweep.column T.Cuda; E.Sweep.column T.Coal ] ()
  with
  | _ -> Alcotest.fail "expected a functional-mismatch failure"
  | exception Failure msg ->
    check Alcotest.bool "mentions the mismatch" true
      (String.length msg > 0
       && String.sub msg 0 (min 7 (String.length msg)) = "Harness")

let test_harness_speedup_direction () =
  let w = Option.get (W.Registry.find "GEN") in
  let sweep =
    E.Sweep.exec ~scale:0.05 ~workloads:[ w ]
      ~columns:[ E.Sweep.column T.Cuda; E.Sweep.column T.Shared_oa ] ()
  in
  match E.Sweep.runs sweep with
  | [ cuda; shard ] ->
    check Alcotest.bool "SharedOA speeds GEN up" true
      (W.Harness.speedup_vs ~baseline:cuda shard > 1.)
  | _ -> Alcotest.fail "expected two runs"

let test_workload_scaled () =
  let p = { (W.Workload.default_params T.Cuda) with W.Workload.scale = 0.5 } in
  check Alcotest.int "halves" 50 (W.Workload.scaled p 100);
  let tiny = { p with W.Workload.scale = 0.0001 } in
  check Alcotest.int "floor of one" 1 (W.Workload.scaled tiny 100)

(* --- scheduler waves ------------------------------------------------------ *)

let test_residency_waves_complete () =
  (* Launch far more warps than the device can host at once; everything
     must still execute exactly once. *)
  let heap = Page_store.create () in
  let cfg = { Config.default with Config.n_sms = 2; max_warps_per_sm = 4 } in
  let device = Device.create ~config:cfg ~heap () in
  let space = Repro_mem.Address_space.create () in
  let arena = Repro_mem.Address_space.reserve space ~name:"out" ~size:(1 lsl 20) in
  let n_threads = 32 * 64 in
  Device.launch device ~n_threads (fun ctx ->
      let tids = Warp_ctx.tids ctx in
      let addrs = Array.map (fun t -> arena.Repro_mem.Address_space.base + (8 * t)) tids in
      Warp_ctx.store ctx ~label:Label.Body addrs (Array.map (fun t -> t + 1) tids));
  let sum = ref 0 in
  for t = 0 to n_threads - 1 do
    sum := !sum + Page_store.load heap (arena.Repro_mem.Address_space.base + (8 * t))
  done;
  check Alcotest.int "every thread ran once" (n_threads * (n_threads + 1) / 2) !sum

let test_cycles_accumulate_across_launches () =
  let heap = Page_store.create () in
  let device = Device.create ~heap () in
  let kernel ctx = Warp_ctx.compute ctx ~label:Label.Body in
  Device.launch device ~n_threads:64 kernel;
  let after_one = Stats.cycles (Device.stats device) in
  Device.launch device ~n_threads:64 kernel;
  check Alcotest.bool "cycles accumulate" true
    (Stats.cycles (Device.stats device) > after_one);
  check Alcotest.int "two launches" 2 (Device.launches device)

(* --- paper-level cross-workload properties -------------------------------- *)

let tiny p = { (W.Workload.default_params T.Shared_oa) with W.Workload.scale = p }

let test_ven_has_higher_pki_than_ve () =
  (* Virtualizing the vertices adds calls: vEN's call density must exceed
     vE's (Table 2: 52.2 vs 35.9 for BFS). *)
  let pki name =
    let w = Option.get (W.Registry.find name) in
    (W.Harness.run w (tiny 0.05)).W.Harness.vfunc_pki
  in
  check Alcotest.bool "vEN > vE (BFS)" true
    (pki "GraphChi-vEN/BFS" > pki "GraphChi-vE/BFS")

let test_traffic_progresses () =
  let w = Option.get (W.Registry.find "TRAF") in
  let total_distance iterations =
    let inst = w.W.Workload.build { (tiny 0.05) with W.Workload.iterations = Some iterations } in
    for i = 0 to inst.W.Workload.iterations - 1 do
      inst.W.Workload.run_iteration i
    done;
    let rt = inst.W.Workload.rt in
    let om = R.Runtime.object_model rt in
    let heap = R.Runtime.heap rt in
    Array.fold_left
      (fun acc (ptr, typ) ->
        if R.Registry.type_name typ = "Car" then
          acc + R.Object_model.field_load_host om heap ~ptr ~field:3
        else acc)
      0
      (R.Runtime.allocations rt)
  in
  let short = total_distance 3 and long = total_distance 10 in
  check Alcotest.bool "cars keep moving" true (long > short && short > 0)

let test_footprints_reflect_allocators () =
  (* The default-CUDA model's padding must reserve several times more
     space than SharedOA for the same population (Sec. 8.2's packing). *)
  let w = Option.get (W.Registry.find "GEN") in
  let reserved technique =
    let p =
      { (tiny 0.05) with W.Workload.technique = technique; chunk_objs = Some 256 }
    in
    let r = W.Harness.run w p in
    r.W.Harness.alloc_stats.R.Allocator.reserved_bytes
  in
  let cuda = reserved T.Cuda and shard = reserved T.Shared_oa in
  check Alcotest.bool "padding costs space" true (cuda > 3 * shard)

let test_tagged_pointers_never_reach_memory () =
  (* End-to-end guard: a full TypePointer workload run must never leak a
     tagged address into the page store (the MMU strip is total). This
     passes iff every access path strips. *)
  let w = Option.get (W.Registry.find "GraphChi-vE/BFS") in
  let r = W.Harness.run w { (tiny 0.05) with W.Workload.technique = T.type_pointer } in
  check Alcotest.bool "ran" true (r.W.Harness.cycles > 0.)

(* --- layout families ------------------------------------------------------ *)

(* Digest of a cell's launches, warp by warp, at scale 0.02: per record
   its opcode, active lanes, repeat count, blocking flag and, for loads
   and stores, its sectors. [dispatch:false] drops every record whose
   label is not [Body]; [dispatch:true] keeps them all. *)
let stream_digests name technique =
  let w = Option.get (W.Registry.find name) in
  let inst =
    w.W.Workload.build
      { (W.Workload.default_params technique) with W.Workload.scale = 0.02 }
  in
  let rt = inst.W.Workload.rt in
  let dev = R.Runtime.device rt in
  R.Runtime.reset_stats rt;
  Device.retain_traces dev true;
  for i = 0 to inst.W.Workload.iterations - 1 do
    inst.W.Workload.run_iteration i
  done;
  let module Trace = Repro_gpu.Trace in
  let body = Label.to_index Label.Body in
  let digest ~dispatch =
    let b = Buffer.create 4096 in
    let add v = Buffer.add_int64_le b (Int64.of_int v) in
    List.iter
      (Array.iter (fun t ->
           let secs = Trace.sector_arena t in
           let cur = ref 0 in
           for i = 0 to Trace.length t - 1 do
             let op = Trace.op t i in
             let keep = dispatch || Trace.label_index t i = body in
             if keep then begin
               add op;
               add (Trace.active t i);
               add (Trace.repeat t i);
               add (if Trace.is_blocking t i then 1 else 0)
             end;
             if op = Trace.op_load || op = Trace.op_store then begin
               let n = secs.(!cur) in
               if keep then for k = 0 to n do add secs.(!cur + k) done;
               cur := !cur + 1 + n
             end
           done;
           add (-1)))
      (Device.retained_traces dev);
    Digest.string (Buffer.contents b)
  in
  (digest ~dispatch:false, digest ~dispatch:true)

(* Whether, within each layout family ({CUDA, Concord} on the CUDA
   heap with one header word; {SharedOA, COAL, TypePointer} on the
   SharedOA heap with two), every technique emits the same body stream
   once dispatch records are dropped. Observed: all of them do. A
   technique that emitted its own body stream (a different target
   serialization order, a strip merged into a body record, a tag bit
   reaching an address) would flip its row. *)
let family_verdicts =
  [
    ("Dynasoar/TRAF", true, true);
    ("Dynasoar/GOL", true, true);
    ("Dynasoar/STUT", true, true);
    ("Dynasoar/GEN", true, true);
    ("GraphChi-vE/BFS", true, true);
    ("GraphChi-vE/CC", true, true);
    ("GraphChi-vE/PR", true, true);
    ("GraphChi-vEN/BFS", true, true);
    ("GraphChi-vEN/CC", true, true);
    ("GraphChi-vEN/PR", true, true);
    ("RAY/RAY", true, true);
  ]

let test_family_body_streams () =
  let verdict name family =
    let digests = List.map (stream_digests name) family in
    let all_equal l = List.for_all (( = ) (List.hd l)) l in
    (* Whole streams always differ inside a family, so an agreement
       below comes from dropping dispatch, not from identical cells. *)
    if all_equal (List.map snd digests) then
      Alcotest.failf "%s: whole streams already agree" name;
    all_equal (List.map fst digests)
  in
  List.iter
    (fun (name, cuda, shared) ->
      check Alcotest.bool (name ^ " CUDA family") cuda
        (verdict name [ T.Cuda; T.Concord ]);
      check Alcotest.bool (name ^ " SharedOA family") shared
        (verdict name [ T.Shared_oa; T.Coal; T.type_pointer ]))
    family_verdicts

let test_v100_like_config_runs () =
  let heap = Page_store.create () in
  let device = Device.create ~config:Config.v100_like ~heap () in
  Device.launch device ~n_threads:(32 * 100) (fun ctx ->
      Warp_ctx.compute ctx ~label:Label.Body);
  check Alcotest.bool "big config works" true (Stats.cycles (Device.stats device) > 0.)

let test_config_validation () =
  let bad = { Config.default with Config.issue_width = 0 } in
  Alcotest.check_raises "invalid config"
    (Invalid_argument "Config: issue_width must be positive") (fun () ->
      Config.validate bad)

let suite =
  [
    Alcotest.test_case "harness rejects mismatch" `Quick
      test_harness_rejects_functional_mismatch;
    Alcotest.test_case "paper cells match recorded digests" `Quick test_paper_cells;
    Alcotest.test_case "DYNA cells match recorded digests" `Quick test_dyna_cells;
    Alcotest.test_case "cells match the ledger" `Quick test_cells_match_ledger;
    Alcotest.test_case "harness speedup direction" `Quick test_harness_speedup_direction;
    Alcotest.test_case "workload scaled" `Quick test_workload_scaled;
    Alcotest.test_case "residency waves complete" `Quick test_residency_waves_complete;
    Alcotest.test_case "cycles accumulate" `Quick test_cycles_accumulate_across_launches;
    Alcotest.test_case "vEN pki > vE pki" `Quick test_ven_has_higher_pki_than_ve;
    Alcotest.test_case "traffic progresses" `Quick test_traffic_progresses;
    Alcotest.test_case "allocator footprints" `Quick test_footprints_reflect_allocators;
    Alcotest.test_case "tagged pointers stripped end-to-end" `Quick
      test_tagged_pointers_never_reach_memory;
    Alcotest.test_case "dispatch-free streams agree within a family" `Quick
      test_family_body_streams;
    Alcotest.test_case "v100-like config" `Quick test_v100_like_config_runs;
    Alcotest.test_case "config validation" `Quick test_config_validation;
  ]
