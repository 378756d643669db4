(* The job API and parallel executor: determinism across worker counts
   (the core guarantee the figures depend on), failure isolation, the
   on-disk cache, and key/hash stability. *)

module W = Repro_workloads
module T = Repro_core.Technique
module X = Repro_exec
module E = Repro_experiments

let check = Alcotest.check

let params ?iterations ?(seed = 42) ~scale technique =
  { (W.Workload.default_params technique) with
    W.Workload.scale; seed; iterations }

let fingerprint (r : W.Harness.run) =
  (r.W.Harness.workload, r.W.Harness.checksum, r.W.Harness.result,
   r.W.Harness.cycles)

(* --- pool ---------------------------------------------------------------- *)

let test_pool_preserves_order () =
  let inputs = Array.init 100 (fun i -> i) in
  let f i = (i * i) + 1 in
  let serial = Repro_util.Pool.map ~jobs:1 ~f inputs in
  let parallel = Repro_util.Pool.map ~jobs:4 ~f inputs in
  check Alcotest.bool "same results in input order" true (serial = parallel);
  Array.iteri
    (fun i result -> check Alcotest.bool "slot i holds f i" true (result = Ok (f i)))
    parallel

let test_pool_captures_exceptions () =
  let inputs = Array.init 10 (fun i -> i) in
  let f i = if i mod 3 = 0 then failwith "boom" else i in
  let results = Repro_util.Pool.map ~jobs:4 ~f inputs in
  Array.iteri
    (fun i result ->
      if i mod 3 = 0 then
        check Alcotest.bool "raising slot is Error" true
          (match result with
           | Error (Failure msg) -> String.equal msg "boom"
           | _ -> false)
      else check Alcotest.bool "sibling survives" true (result = Ok i))
    results

(* --- job identity -------------------------------------------------------- *)

let test_job_key_stability () =
  let gol = Option.get (W.Registry.find "GOL") in
  let job scale seed = X.Job.make gol (params ~scale ~seed T.Coal) in
  check Alcotest.bool "same params, same key" true
    (X.Job.equal (job 0.1 1) (job 0.1 1));
  check Alcotest.string "same params, same hash" (X.Job.hash (job 0.1 1))
    (X.Job.hash (job 0.1 1));
  check Alcotest.bool "seed changes the key" false
    (X.Job.equal (job 0.1 1) (job 0.1 2));
  check Alcotest.bool "scale changes the key" false
    (X.Job.equal (job 0.1 1) (job 0.2 1));
  let tp_proto = X.Job.make gol (params ~scale:0.1 T.type_pointer) in
  let tp_hw = X.Job.make gol (params ~scale:0.1 T.type_pointer_hw) in
  check Alcotest.bool "TP modes get distinct keys" false
    (X.Job.equal tp_proto tp_hw);
  let custom =
    X.Job.make gol
      { (params ~scale:0.1 T.Coal) with
        W.Workload.config = Some Repro_gpu.Config.default }
  in
  check Alcotest.bool "custom config is uncacheable" false
    (X.Job.cacheable custom);
  check Alcotest.bool "plain job is cacheable" true
    (X.Job.cacheable (job 0.1 1));
  let module A = Repro_core.Alloc_family in
  let dyna =
    X.Job.make gol
      { (params ~scale:0.1 ~seed:1 T.Cuda) with
        W.Workload.alloc = Some A.Dyna_soa }
  in
  let cuda = X.Job.make gol (params ~scale:0.1 ~seed:1 T.Cuda) in
  check Alcotest.bool "allocator family changes the key" false
    (X.Job.equal dyna cuda);
  check Alcotest.bool "dyna job is cacheable" true (X.Job.cacheable dyna);
  check Alcotest.string "column name folds in the family" "DYNA"
    (X.Job.column_name dyna);
  check Alcotest.string "default family keeps the technique name" "CUDA"
    (X.Job.column_name cuda)

(* --- executor determinism ------------------------------------------------ *)

let small_matrix ~seed ~scale =
  let workloads =
    List.filter_map W.Registry.find [ "GOL"; "TRAF"; "GraphChi-vE/CC" ]
  in
  List.concat_map
    (fun w ->
      List.map
        (fun t -> X.Job.make w (params ~iterations:1 ~seed ~scale t))
        [ T.Cuda; T.Coal ])
    workloads

let test_parallel_equals_serial_qcheck () =
  let arb =
    QCheck.make
      ~print:(fun (seed, scale) -> Printf.sprintf "seed=%d scale=%f" seed scale)
      QCheck.Gen.(pair (int_range 1 1000) (oneofl [ 0.02; 0.03; 0.05 ]))
  in
  let prop (seed, scale) =
    let outcomes j = X.Executor.run ~jobs:j (small_matrix ~seed ~scale) in
    let runs j = List.map X.Executor.ok_exn (outcomes j) in
    List.map fingerprint (runs 1) = List.map fingerprint (runs 4)
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:3
       ~name:"parallel (-j 4) == serial (-j 1): checksum, result, cycles, order"
       arb prop)

let failing_workload =
  {
    W.Workload.name = "FAIL";
    suite = "test";
    description = "always raises in build";
    paper_objects = 0;
    paper_types = 0;
    build = (fun _ -> failwith "deliberate failure");
  }

let test_failing_job_isolated () =
  let gol = Option.get (W.Registry.find "GOL") in
  let p = params ~iterations:1 ~scale:0.02 T.Coal in
  let jobs =
    [ X.Job.make gol p; X.Job.make failing_workload p; X.Job.make gol p ]
  in
  let outcomes = X.Executor.run ~jobs:2 jobs in
  check Alcotest.int "one outcome per job" 3 (List.length outcomes);
  (match List.map (fun (o : X.Executor.outcome) -> o.X.Executor.result) outcomes with
   | [ Ok _; Error msg; Ok _ ] ->
     check Alcotest.bool "error text captured" true
       (String.length msg > 0)
   | _ -> Alcotest.fail "expected [Ok; Error; Ok] in job order");
  check Alcotest.int "errors lists exactly the failing job" 1
    (List.length (X.Executor.errors outcomes))

(* --- cache --------------------------------------------------------------- *)

let with_temp_cache f =
  let dir = Filename.temp_dir "repro-exec-cache" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun file -> try Sys.remove (Filename.concat dir file) with _ -> ())
        (try Sys.readdir dir with _ -> [||]);
      try Sys.rmdir dir with _ -> ())
    (fun () -> f dir)

let test_cache_round_trip () =
  with_temp_cache (fun dir ->
      let jobs = small_matrix ~seed:7 ~scale:0.02 in
      let first = X.Executor.run ~jobs:2 ~cache:true ~cache_dir:dir jobs in
      check Alcotest.bool "first pass measures" true
        (List.for_all (fun (o : X.Executor.outcome) -> not o.X.Executor.cached) first);
      let second = X.Executor.run ~jobs:2 ~cache:true ~cache_dir:dir jobs in
      check Alcotest.bool "second pass is all hits" true
        (List.for_all (fun (o : X.Executor.outcome) -> o.X.Executor.cached) second);
      check Alcotest.bool "hits replay the measurement exactly" true
        (List.map (fun o -> fingerprint (X.Executor.ok_exn o)) first
         = List.map (fun o -> fingerprint (X.Executor.ok_exn o)) second);
      let no_cache = X.Executor.run ~jobs:2 ~cache_dir:dir jobs in
      check Alcotest.bool "cache off re-measures" true
        (List.for_all
           (fun (o : X.Executor.outcome) -> not o.X.Executor.cached)
           no_cache);
      let other_seed =
        X.Executor.run ~cache:true ~cache_dir:dir
          (small_matrix ~seed:8 ~scale:0.02)
      in
      check Alcotest.bool "different seed misses" true
        (List.for_all
           (fun (o : X.Executor.outcome) -> not o.X.Executor.cached)
           other_seed);
      check Alcotest.bool "clear removes entries" true (X.Cache.clear ~dir > 0);
      let after_clear = X.Executor.run ~cache:true ~cache_dir:dir jobs in
      check Alcotest.bool "cleared cache re-measures" true
        (List.for_all
           (fun (o : X.Executor.outcome) -> not o.X.Executor.cached)
           after_clear))

let entry_file ~dir job = Filename.concat dir (X.Job.hash job ^ ".job")

let read_file file = In_channel.with_open_bin file In_channel.input_all

let write_file file text =
  Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc text)

(* A bad entry is a miss for the CLI's decoding lookup and for the
   daemon's text lookup alike. *)
let check_misses ~dir job what =
  check Alcotest.bool (what ^ ": lookup misses") true
    (X.Cache.lookup ~dir job = None);
  check Alcotest.bool (what ^ ": lookup_text misses") true
    (X.Cache.lookup_text ~dir job = None)

let check_hits ~dir job run what =
  check Alcotest.bool (what ^ ": lookup hits") true
    (match X.Cache.lookup ~dir job with
     | Some r -> fingerprint r = fingerprint run
     | None -> false);
  check (Alcotest.option Alcotest.string) (what ^ ": lookup_text hits")
    (Some (X.Run_wire.encode run))
    (X.Cache.lookup_text ~dir job)

(* [entry] with the last digit of its payload bumped: still JSON that
   decodes, so only the stored digest can tell. *)
let flip_payload_digit entry =
  let b = Bytes.of_string entry in
  let rec go i =
    match Bytes.get b i with
    | '0' .. '8' as c ->
      Bytes.set b i (Char.chr (Char.code c + 1));
      Bytes.to_string b
    | _ -> go (i - 1)
  in
  go (Bytes.length b - 2)

let test_cache_ignores_corrupt_entries () =
  with_temp_cache (fun dir ->
      let job, other =
        match small_matrix ~seed:9 ~scale:0.02 with
        | a :: b :: _ -> (a, b)
        | _ -> Alcotest.fail "matrix too small"
      in
      let run = X.Job.run job in
      X.Cache.store ~dir job run;
      let file = entry_file ~dir job in
      let good = read_file file in
      X.Cache.store ~dir other (X.Job.run other);
      let header_end = String.index good '\n' in
      let header = String.sub good 0 header_end in
      let v = X.Job.schema_version in
      let at = Option.get (String.index_from_opt header 0 ' ') + 1 in
      check Alcotest.string "header names the schema version" v
        (String.sub header at (String.length v));
      let random =
        let st = Random.State.make [| 9 |] in
        String.init 4096 (fun _ -> Char.chr (Random.State.int st 256))
      in
      (* An entry the previous format version wrote: a v8 header over a
         committed run line that still carries [kernel_stats], with that
         payload's true length and MD5. *)
      let v8_entry =
        let payload =
          In_channel.with_open_bin "fixtures/run_traf_cuda.json" In_channel.input_all
        in
        Printf.sprintf "repro-cache repro-exec-v8 %d %s\n%s\n%s"
          (String.length payload) (Digest.to_hex (Digest.string payload))
          (X.Job.key job) payload
      in
      let corruptions =
        [
          ("random bytes", random);
          ("truncated payload", String.sub good 0 (String.length good - 1));
          ("payload cut in half", String.sub good 0 (String.length good / 2));
          ("flipped payload byte", flip_payload_digit good);
          ( "header names v7",
            String.sub header 0 at ^ "repro-exec-v7"
            ^ String.sub good (at + String.length v)
                (String.length good - at - String.length v) );
          ("another job's entry", read_file (entry_file ~dir other));
          ("marshalled v7 layout", Marshal.to_string (X.Job.key job, run) []);
          ("header only", String.sub good 0 (header_end + 1));
          ("v8 entry with kernel_stats", v8_entry);
        ]
      in
      List.iteri
        (fun i (what, bytes) ->
          check Alcotest.bool (what ^ " differs from the entry") false
            (String.equal bytes good);
          write_file file bytes;
          check_misses ~dir job what;
          (* The next store overwrites the bad entry, by either path. *)
          if i mod 2 = 0 then X.Cache.store ~dir job run
          else X.Cache.store_text ~dir job (X.Run_wire.encode run);
          check Alcotest.string (what ^ ": overwritten") good (read_file file);
          check_hits ~dir job run (what ^ " then store"))
        corruptions)

let test_cache_tolerates_torn_writes () =
  with_temp_cache (fun dir ->
      let job = List.hd (small_matrix ~seed:10 ~scale:0.02) in
      let run = X.Job.run job in
      X.Cache.store ~dir job run;
      let file = entry_file ~dir job in
      (* Simulate a writer killed mid-write: truncate the entry. *)
      let full = read_file file in
      write_file file (String.sub full 0 (String.length full / 2));
      check_misses ~dir job "truncated entry";
      (* An empty file — rename landed, data never made it. *)
      write_file file "";
      check_misses ~dir job "empty entry";
      (* The miss is recoverable: store again, read back. *)
      X.Cache.store ~dir job run;
      check_hits ~dir job run "re-stored entry")

let test_cache_store_is_atomic () =
  with_temp_cache (fun dir ->
      let job = List.hd (small_matrix ~seed:11 ~scale:0.02) in
      X.Cache.store ~dir job (X.Job.run job);
      (* No temp droppings next to the entry, and the entry is complete. *)
      let files = Sys.readdir dir in
      check Alcotest.bool "no temp files left behind" true
        (Array.for_all (fun f -> Filename.check_suffix f ".job") files);
      check Alcotest.int "exactly one entry" 1 (Array.length files);
      check Alcotest.bool "entry reads back" true
        (X.Cache.lookup ~dir job <> None))

(* [Executor.run] stores from its worker domains, so two sweeps over one
   directory write the same entries at once: a reader polling meanwhile
   sees each entry whole or not at all, and no temp file outlives the
   writers. *)
let test_concurrent_writers_one_dir () =
  with_temp_cache (fun dir ->
      let jobs = small_matrix ~seed:13 ~scale:0.02 in
      let texts =
        List.map
          (fun o -> X.Run_wire.encode (X.Executor.ok_exn o))
          (X.Executor.run jobs)
      in
      let writing = Atomic.make true in
      let reads = Atomic.make 0 and torn = Atomic.make 0 in
      let reader =
        Domain.spawn (fun () ->
            while Atomic.get writing do
              List.iter2
                (fun job text ->
                  match X.Cache.lookup_text ~dir job with
                  | None -> ()
                  | Some got ->
                    Atomic.incr reads;
                    if got <> text then Atomic.incr torn)
                jobs texts
            done)
      in
      let writer () =
        Domain.spawn (fun () ->
            X.Executor.run ~jobs:2 ~cache:true ~cache_dir:dir jobs)
      in
      let w1 = writer () and w2 = writer () in
      let passes = [ Domain.join w1; Domain.join w2 ] in
      Atomic.set writing false;
      Domain.join reader;
      check Alcotest.bool "both passes succeed" true
        (List.for_all
           (fun outcomes -> X.Executor.errors outcomes = [])
           passes);
      check Alcotest.int "every read is None or the whole entry" 0
        (Atomic.get torn);
      Printf.printf "%d entry reads during the writes\n" (Atomic.get reads);
      check Alcotest.bool "no temp files left behind" true
        (Array.for_all
           (fun f -> not (Filename.check_suffix f ".tmp"))
           (Sys.readdir dir));
      check Alcotest.bool "every job hits afterwards" true
        (List.for_all
           (fun (o : X.Executor.outcome) -> o.X.Executor.cached)
           (X.Executor.run ~cache:true ~cache_dir:dir jobs)))

(* Lookup, run and store are one step per job, so at [~jobs:1] a
   repeated key is served from the entry its first occurrence wrote. *)
let test_repeated_key_hits_serially () =
  with_temp_cache (fun dir ->
      let job = List.hd (small_matrix ~seed:14 ~scale:0.02) in
      match X.Executor.run ~cache:true ~cache_dir:dir [ job; job ] with
      | [ first; repeat ] ->
        check Alcotest.bool "first occurrence measures" false
          first.X.Executor.cached;
        check Alcotest.bool "repeat hits" true repeat.X.Executor.cached;
        check Alcotest.bool "same run" true
          (fingerprint (X.Executor.ok_exn first)
           = fingerprint (X.Executor.ok_exn repeat))
      | _ -> Alcotest.fail "expected two outcomes")

let test_cache_invalidate () =
  with_temp_cache (fun dir ->
      let job = List.hd (small_matrix ~seed:12 ~scale:0.02) in
      check Alcotest.bool "invalidate on empty cache is false" false
        (X.Cache.invalidate ~dir job);
      X.Cache.store ~dir job (X.Job.run job);
      check Alcotest.bool "invalidate removes the entry" true
        (X.Cache.invalidate ~dir job);
      check Alcotest.bool "entry is gone" true (X.Cache.lookup ~dir job = None);
      check Alcotest.bool "second invalidate is false" false
        (X.Cache.invalidate ~dir job))

(* --- sweep over the executor --------------------------------------------- *)

let sweep_workloads = List.filter_map W.Registry.find [ "GOL"; "TRAF" ]

let test_sweep_exec_parallel_matches_serial () =
  let sweep j =
    E.Sweep.exec ~scale:0.03 ~iterations:1 ~j ~workloads:sweep_workloads ()
  in
  check Alcotest.bool "identical sweeps" true
    (List.map fingerprint (E.Sweep.runs (sweep 1))
     = List.map fingerprint (E.Sweep.runs (sweep 4)))

let test_sweep_outcomes_shape () =
  let s = E.Sweep.exec ~scale:0.03 ~iterations:1 ~j:2 ~workloads:sweep_workloads () in
  let outcomes = E.Sweep.outcomes s in
  check Alcotest.int "one outcome per run" (List.length (E.Sweep.runs s))
    (List.length outcomes);
  List.iter2
    (fun (o : X.Executor.outcome) (r : W.Harness.run) ->
      check Alcotest.string "outcomes line up with runs"
        (X.Job.workload_name o.X.Executor.job) r.W.Harness.workload;
      check Alcotest.bool "wall time nonnegative" true (o.X.Executor.wall_s >= 0.))
    outcomes (E.Sweep.runs s)

let suite =
  [
    Alcotest.test_case "pool preserves order" `Quick test_pool_preserves_order;
    Alcotest.test_case "pool captures exceptions" `Quick test_pool_captures_exceptions;
    Alcotest.test_case "job key stability" `Quick test_job_key_stability;
    Alcotest.test_case "parallel == serial (qcheck)" `Slow
      test_parallel_equals_serial_qcheck;
    Alcotest.test_case "failing job isolated" `Quick test_failing_job_isolated;
    Alcotest.test_case "cache round trip" `Quick test_cache_round_trip;
    Alcotest.test_case "cache ignores corrupt entries" `Quick
      test_cache_ignores_corrupt_entries;
    Alcotest.test_case "cache tolerates torn writes" `Quick
      test_cache_tolerates_torn_writes;
    Alcotest.test_case "cache store is atomic" `Quick test_cache_store_is_atomic;
    Alcotest.test_case "concurrent writers on one cache directory" `Quick
      test_concurrent_writers_one_dir;
    Alcotest.test_case "a repeated key hits at -j 1" `Quick
      test_repeated_key_hits_serially;
    Alcotest.test_case "cache invalidate" `Quick test_cache_invalidate;
    Alcotest.test_case "sweep: parallel == serial" `Slow
      test_sweep_exec_parallel_matches_serial;
    Alcotest.test_case "sweep: outcomes shape" `Quick test_sweep_outcomes_shape;
  ]
