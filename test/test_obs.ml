(* Tests for the observability layer: JSON writer/reader, the metric
   registry's coverage of Stats, per-kernel profiles, export sinks. *)

module O = Repro_obs
module Json = Repro_obs.Json
module Metric = Repro_obs.Metric
module Stats = Repro_gpu.Stats
module Label = Repro_gpu.Label
module Series = Repro_report.Series
module W = Repro_workloads
module T = Repro_core.Technique

let check = Alcotest.check

(* --- json ------------------------------------------------------------- *)

let sample_json =
  Json.Obj
    [
      ("null", Json.Null);
      ("flag", Json.Bool true);
      ("int", Json.Int (-42));
      ("third", Json.Float (1. /. 3.));
      ("tenth", Json.Float 0.1);
      ("whole", Json.Float 4096.);
      ("tiny", Json.Float 1.2345678901234e-12);
      ("text", Json.String "quote \" slash \\ newline \n tab \t end");
      ("list", Json.List [ Json.Int 1; Json.Float 2.5; Json.String "x"; Json.Null ]);
      ("empty_list", Json.List []);
      ("empty_obj", Json.Obj []);
    ]

let test_json_round_trip () =
  List.iter
    (fun pretty ->
      match Json.of_string (Json.to_string ~pretty sample_json) with
      | Ok parsed ->
        check Alcotest.bool
          (if pretty then "pretty round-trips" else "compact round-trips")
          true (parsed = sample_json)
      | Error msg -> Alcotest.failf "parse error: %s" msg)
    [ false; true ]

let test_json_float_exactness () =
  (* Every emitted float must parse back to the identical IEEE double. *)
  let floats =
    [ 0.1; 1. /. 3.; 1e300; 5e-324; 1.5; 0.; -0.7; 123456789.123456789 ]
  in
  List.iter
    (fun f ->
      match Json.of_string (Json.to_string (Json.Float f)) with
      | Ok (Json.Float g) ->
        check Alcotest.bool (Printf.sprintf "%h exact" f) true (g = f)
      | Ok _ -> Alcotest.failf "%h did not parse back as a float" f
      | Error msg -> Alcotest.failf "parse error on %h: %s" f msg)
    floats

let test_json_parse_errors () =
  List.iter
    (fun input ->
      match Json.of_string input with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed input %S" input)
    [ ""; "{"; "[1,]"; "nul"; "\"unterminated"; "{\"a\" 1}"; "1 2"; "+" ]

let test_json_accessors () =
  let j = sample_json in
  check Alcotest.bool "member" true (Json.member "int" j = Some (Json.Int (-42)));
  check Alcotest.bool "member missing" true (Json.member "nope" j = None);
  check Alcotest.bool "int_opt" true (Json.int_opt (Json.Int 3) = Some 3);
  check Alcotest.bool "float_opt accepts int" true
    (Json.float_opt (Json.Int 3) = Some 3.);
  check Alcotest.bool "string_opt rejects int" true
    (Json.string_opt (Json.Int 3) = None)

(* The printer [Json.float_repr] replaced, kept as its oracle. *)
let float_repr_reference f =
  if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let float_cases =
  let open QCheck.Gen in
  let bits = map Int64.float_of_bits ui64 in
  let signed g = map2 (fun neg f -> if neg then -.f else f) bool g in
  let integral bound = map Float.of_int (int_range (-bound) bound) in
  oneof
    [
      (* Every bit pattern: normals, subnormals, NaNs and infinities. *)
      bits;
      (* Integral values on both sides of the 1e16 cut. *)
      integral 10_000;
      integral 20_000_000_000_000_000;
      signed (map (fun k -> 1e16 +. Float.of_int k) (int_range (-64) 64));
      signed (map (fun k -> Float.pred 1e16 -. Float.of_int k) (int_range 0 64));
      oneofl [ 0.; -0.; 1e16; -1e16; Float.pred 1e16; Float.succ 1e16 ];
      (* Subnormals. *)
      signed (map (fun m -> Int64.float_of_bits (Int64.of_int m)) (int_range 1 (1 lsl 52)));
      (* 1e+-300, and ratios that need all 17 digits. *)
      signed (map (fun k -> 1e300 *. Float.of_int k) (int_range 1 1000));
      signed (map (fun k -> 1e-300 *. Float.of_int k) (int_range 1 1000));
      map2 (fun a b -> Float.of_int a /. Float.of_int b) (int_range 1 1_000_000)
        (int_range 1 1_000_000);
      signed (float_bound_exclusive 1.);
    ]

let prop_float_repr_reference =
  QCheck.Test.make ~count:5000 ~name:"float_repr is byte-equal to the Printf reference"
    (QCheck.make ~print:(Printf.sprintf "%h") float_cases)
    (fun f -> String.equal (Json.float_repr f) (float_repr_reference f))

(* Ints at the edges of the range, through the writer and back. *)
let prop_int_round_trip =
  QCheck.Test.make ~count:2000 ~name:"ints near max_int and min_int round-trip"
    (QCheck.make ~print:string_of_int
       QCheck.Gen.(
         oneof
           [
             map (fun k -> max_int - k) (int_range 0 1000);
             map (fun k -> min_int + k) (int_range 0 1000);
             int;
             int_range (-1000) 1000;
           ]))
    (fun i ->
      let text = Json.to_string (Json.Int i) in
      String.equal text (string_of_int i) && Json.of_string text = Ok (Json.Int i))

(* How a number token read before the in-place int scan: [int_of_string_opt]
   unless it has a fraction or exponent, then [float_of_string_opt]. *)
let number_reference tok =
  let as_float () = Option.map (fun f -> Json.Float f) (float_of_string_opt tok) in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok then as_float ()
  else
    match int_of_string_opt tok with Some i -> Some (Json.Int i) | None -> as_float ()

let same_number a b =
  match (a, b) with
  | Some (Json.Int x), Some (Json.Int y) -> x = y
  | Some (Json.Float x), Some (Json.Float y) ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | None, None -> true
  | _ -> false

(* 18-digit tokens take the in-place scan, 19-digit ones (which may pass
   max_int and read as floats) the general path; both must read each
   token, bare or inside a list, as the reference does. *)
let prop_number_tokens =
  let digits n = QCheck.Gen.(string_size ~gen:numeral (return n)) in
  QCheck.Test.make ~count:3000 ~name:"number tokens read as int_of_string/float_of_string do"
    (QCheck.make ~print:Fun.id
       QCheck.Gen.(
         let* sign = oneofl [ ""; "-"; "+" ] in
         let* body =
           oneof
             [
               digits 18; digits 19; digits 17; digits 20;
               map2 ( ^ ) (digits 1) (digits 18);
               string_size ~gen:(oneofl [ '0'; '1'; '9'; '-'; '+'; '.'; 'e'; 'E' ])
                 (int_range 1 24);
             ]
         in
         return (sign ^ body)))
    (fun tok ->
      let parsed = Result.to_option (Json.of_string tok) in
      let listed =
        match Json.of_string ("[" ^ tok ^ ",7]") with
        | Ok (Json.List [ v; Json.Int 7 ]) -> Some v
        | _ -> None
      in
      let want = number_reference tok in
      same_number parsed want && same_number listed want)

(* --- metric registry --------------------------------------------------- *)

let test_registry_covers_stats () =
  (* The digest layout [Stats.to_raw] is a record of scalar counters
     plus two Label-indexed arrays and one violation-kind-indexed array.
     A scalar declared in the counter table but missing from that
     record would escape every recorded digest; this count then goes
     stale and the test fails. *)
  let raw_fields = Obj.size (Obj.repr (Stats.to_raw (Stats.create ()))) in
  check Alcotest.int "one scalar metric per scalar digest field"
    (raw_fields - 3) (List.length Metric.scalars);
  check Alcotest.int "both per-label families over every label"
    (2 * Label.count) (List.length Metric.per_label);
  check Alcotest.int "san family covers every violation kind"
    Repro_san.Violation.kind_count
    (List.length Metric.san)

let test_registry_names_unique () =
  let names = List.map Metric.name Metric.all in
  check Alcotest.int "no duplicate metric names"
    (List.length names)
    (List.length (List.sort_uniq compare names))

(* [Metric.all] is the key order of every profile and timeline metrics
   object, so it is pinned name by name. *)
let test_registry_order_pinned () =
  let labels =
    [ "vtable_load"; "vfunc_load"; "const_indirect"; "call"; "coal_lookup";
      "tp_dispatch"; "tp_strip"; "concord_tag"; "concord_switch"; "body" ]
  in
  let kinds =
    [ "oob"; "uaf"; "misaligned_vtable"; "non_canonical"; "tag_mismatch";
      "vm_unmapped"; "vm_owner" ]
  in
  let family prefix slugs = List.map (fun s -> prefix ^ "." ^ s) slugs in
  check (Alcotest.list Alcotest.string) "Metric.all order"
    ([ "cycles"; "instructions.mem"; "instructions.compute";
       "instructions.ctrl"; "load_transactions"; "store_transactions";
       "l1.hits"; "l1.misses"; "l2.hits"; "l2.misses"; "dram.sectors";
       "trace.dropped"; "tlb.l1_hits"; "tlb.l2_hits"; "tlb.walks";
       "tlb.walk_cycles" ]
    @ family "stall_cycles" labels
    @ family "load_transactions" labels
    @ family "san_violations" kinds
    @ [ "instructions.total"; "l1.hit_rate"; "l2.hit_rate";
        "stall_cycles.total" ])
    (List.map Metric.name Metric.all)

let test_registry_find () =
  (match Metric.find "l1.hits" with
   | Some m -> check Alcotest.string "find by name" "l1.hits" (Metric.name m)
   | None -> Alcotest.fail "l1.hits not found");
  check Alcotest.bool "unknown name" true (Metric.find "no.such.metric" = None);
  check Alcotest.bool "per-label name" true
    (Metric.find "stall_cycles.vtable_load" <> None)

let test_registry_values_match_getters () =
  let s = Stats.create () in
  Stats.bump s Metric.load_transactions 7;
  Stats.bump s (Metric.load_transactions_for Label.Vtable_load) 7;
  Stats.bump s Metric.store_transactions 3;
  Stats.bump s Metric.l1_hits 1;
  Stats.bump s Metric.l1_misses 1;
  Stats.add_cycles s 12.5;
  Stats.bump_float s (Metric.stall_cycles Label.Call) 4.25;
  check Alcotest.int "getter load_transactions" 7 (Stats.load_transactions s);
  check (Alcotest.float 0.) "getter stall_cycles" 4.25
    (Stats.stall_cycles s Label.Call);
  check Alcotest.bool "load_transactions" true
    (Metric.value Metric.load_transactions s = Metric.Int 7);
  check Alcotest.bool "store_transactions" true
    (Metric.value Metric.store_transactions s = Metric.Int 3);
  check Alcotest.bool "cycles" true (Metric.value Metric.cycles s = Metric.Float 12.5);
  check Alcotest.bool "per-label load" true
    (Metric.value (Metric.load_transactions_for Label.Vtable_load) s = Metric.Int 7);
  check Alcotest.bool "per-label stall" true
    (Metric.value (Metric.stall_cycles Label.Call) s = Metric.Float 4.25);
  check (Alcotest.float 1e-9) "derived hit rate" 0.5
    (Metric.to_float Metric.l1_hit_rate s)

(* --- profiles ---------------------------------------------------------- *)

let traf_run =
  lazy
    (let w =
       match W.Registry.find "TRAF" with
       | Some w -> w
       | None -> Alcotest.fail "TRAF workload missing"
     in
     let params =
       { (W.Workload.default_params T.type_pointer) with W.Workload.scale = 0.03 }
     in
     W.Harness.run w params)

let profile_of (r : W.Harness.run) =
  O.Profile.make ~workload:r.W.Harness.workload
    ~technique:(T.name r.W.Harness.technique)
    ~kernel_stats:r.W.Harness.kernel_stats ~total:r.W.Harness.stats

let test_profile_deltas_sum_to_totals () =
  let r = Lazy.force traf_run in
  check Alcotest.bool "multi-kernel workload" true
    (List.length r.W.Harness.kernel_stats > 1);
  let p = profile_of r in
  (match O.Profile.consistent p with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "deltas disagree with totals: %s" msg);
  (* The cycles of the timeline sum exactly (not approximately). *)
  let summed =
    List.fold_left
      (fun acc k -> acc +. k.O.Profile.cycles)
      0. p.O.Profile.kernels
  in
  check Alcotest.bool "cycles bit-exact" true (summed = r.W.Harness.cycles)

let test_profile_detects_tampering () =
  let r = Lazy.force traf_run in
  let p = profile_of r in
  (match p.O.Profile.kernels with
   | k :: _ -> Stats.add_cycles k.O.Profile.stats 1.
   | [] -> Alcotest.fail "no kernels");
  match O.Profile.consistent p with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "tampered profile reported consistent"

let test_profile_json_round_trip () =
  let r = Lazy.force traf_run in
  let p = profile_of r in
  let json_text = Json.to_string ~pretty:true (O.Profile.to_json p) in
  match Json.of_string json_text with
  | Error msg -> Alcotest.failf "profile JSON does not parse: %s" msg
  | Ok j ->
    check Alcotest.bool "workload" true
      (Option.bind (Json.member "workload" j) Json.string_opt
       = Some r.W.Harness.workload);
    let kernels =
      match Option.bind (Json.member "kernels" j) Json.list_opt with
      | Some ks -> ks
      | None -> Alcotest.fail "kernels missing"
    in
    check Alcotest.int "one entry per launch"
      (List.length r.W.Harness.kernel_stats)
      (List.length kernels);
    (* Exported floats are exact: total cycles read back from JSON must
       equal the measured value bitwise. *)
    let total_cycles =
      Option.bind (Json.member "total" j) (fun t ->
          Option.bind (Json.member "cycles" t) Json.float_opt)
    in
    check Alcotest.bool "total cycles exact" true
      (total_cycles = Some r.W.Harness.cycles)

let test_profile_csv_shape () =
  let r = Lazy.force traf_run in
  let p = profile_of r in
  let lines =
    String.split_on_char '\n' (String.trim (O.Profile.to_csv p))
  in
  check Alcotest.string "header" "launch,metric,value" (List.hd lines);
  let n_counters = List.length Metric.counters in
  let expected =
    1
    + (n_counters * List.length r.W.Harness.kernel_stats)
    + List.length Metric.all
  in
  check Alcotest.int "rows: kernels x counters + totals" expected
    (List.length lines)

(* --- timeline (windowed sampling) -------------------------------------- *)

let telemetry_params ?(trace = false) ?(capacity = 65536) technique ~scale
    ~window =
  {
    (W.Workload.default_params technique) with
    W.Workload.scale;
    telemetry =
      Some
        { Repro_gpu.Telemetry.window = Some window; trace;
          trace_capacity = capacity };
  }

let timeline_of (r : W.Harness.run) =
  let window =
    match r.W.Harness.window with
    | Some w -> w
    | None -> Alcotest.fail "sampling was on but run has no window"
  in
  O.Timeline.make ~workload:r.W.Harness.workload
    ~technique:(T.name r.W.Harness.technique)
    ~window ~kernel_windows:r.W.Harness.kernel_windows

let test_timeline_window_sums () =
  (* The tentpole invariant: per-window deltas fold back to the
     per-kernel deltas and the run totals bit-exactly, for every
     additive counter, across the workload matrix, at two very
     different window sizes. *)
  List.iter
    (fun w ->
      List.iter
        (fun technique ->
          List.iter
            (fun window ->
              let r =
                W.Harness.run w
                  (telemetry_params technique ~scale:0.02 ~window)
              in
              let tl = timeline_of r in
              check Alcotest.int
                (Printf.sprintf "%s: one window array per launch"
                   r.W.Harness.workload)
                (List.length r.W.Harness.kernel_stats)
                (List.length tl.O.Timeline.kernels);
              match O.Timeline.consistent tl ~profile:(profile_of r) with
              | Ok () -> ()
              | Error msg ->
                Alcotest.failf "%s [%s] window=%d: %s" r.W.Harness.workload
                  (T.name technique) window msg)
            [ 256; 4096 ])
        [ T.Shared_oa; T.type_pointer ])
    W.Registry.all

let test_timeline_series_and_json () =
  let r =
    match W.Registry.find "TRAF" with
    | Some w ->
      W.Harness.run w (telemetry_params T.type_pointer ~scale:0.03 ~window:512)
    | None -> Alcotest.fail "TRAF workload missing"
  in
  let tl = timeline_of r in
  check Alcotest.bool "several windows" true (O.Timeline.n_windows tl > 4);
  (* Derived series all cover every window, grouped by start cycle. *)
  let n = O.Timeline.n_windows tl in
  List.iter
    (fun (s : Series.t) ->
      check Alcotest.int
        (Printf.sprintf "%s covers every window" s.Series.name)
        n
        (List.length s.Series.points))
    (O.Timeline.series tl);
  (* to_json parses back and keeps per-window cycles exact. *)
  match Json.of_string (Json.to_string ~pretty:true (O.Timeline.to_json tl)) with
  | Error msg -> Alcotest.failf "timeline JSON does not parse: %s" msg
  | Ok j ->
    let kernels =
      match Option.bind (Json.member "kernels" j) Json.list_opt with
      | Some ks -> ks
      | None -> Alcotest.fail "kernels missing"
    in
    check Alcotest.int "one JSON entry per launch"
      (List.length tl.O.Timeline.kernels)
      (List.length kernels)

(* --- tracer (Chrome trace-event export) -------------------------------- *)

let traced_run =
  lazy
    (match W.Registry.find "TRAF" with
     | Some w ->
       W.Harness.run w
         (telemetry_params ~trace:true T.type_pointer ~scale:0.03 ~window:512)
     | None -> Alcotest.fail "TRAF workload missing")

let dump_of (r : W.Harness.run) =
  match r.W.Harness.trace with
  | Some d -> d
  | None -> Alcotest.fail "tracing was on but run has no dump"

let test_trace_json_round_trip () =
  let r = Lazy.force traced_run in
  let dump = dump_of r in
  check Alcotest.bool "ring captured events" true
    (Array.length dump.Repro_gpu.Telemetry.events > 0);
  let json =
    O.Tracer.to_json ~timeline:(timeline_of r) ~workload:r.W.Harness.workload
      ~technique:(T.name r.W.Harness.technique) dump
  in
  match Json.of_string (Json.to_string ~pretty:true json) with
  | Error msg -> Alcotest.failf "trace JSON does not parse: %s" msg
  | Ok parsed ->
    check Alcotest.bool "round-trips structurally" true (parsed = json);
    (match O.Tracer.validate parsed with
     | Ok () -> ()
     | Error msg -> Alcotest.failf "invalid Chrome trace: %s" msg);
    let events =
      match Option.bind (Json.member "traceEvents" parsed) Json.list_opt with
      | Some es -> es
      | None -> Alcotest.fail "traceEvents missing"
    in
    (* Metadata + kernel spans + ring events + counter samples. *)
    check Alcotest.bool "all events exported" true
      (List.length events
       > Array.length dump.Repro_gpu.Telemetry.events
         + List.length dump.Repro_gpu.Telemetry.kernels)

let test_trace_events_within_kernel_spans () =
  let r = Lazy.force traced_run in
  let dump = dump_of r in
  let spans = dump.Repro_gpu.Telemetry.kernels in
  check Alcotest.int "one span per launch"
    (List.length r.W.Harness.kernel_stats)
    (List.length spans);
  Array.iter
    (fun (e : Repro_util.Event_ring.event) ->
      let contained =
        List.exists
          (fun (k : Repro_gpu.Telemetry.kernel_span) ->
            k.start <= e.ts && e.ts +. e.dur <= k.start +. k.dur)
          spans
      in
      if not contained then
        Alcotest.failf "event (kind %d) at ts=%g dur=%g outside every kernel span"
          e.kind e.ts e.dur)
    dump.Repro_gpu.Telemetry.events

let test_trace_dropped_counter () =
  (* A deliberately tiny ring must overflow, and the spill shows up both
     in the dump and as the trace.dropped metric on the run totals. *)
  let r =
    match W.Registry.find "TRAF" with
    | Some w ->
      W.Harness.run w
        (telemetry_params ~trace:true ~capacity:64 T.type_pointer ~scale:0.03
           ~window:512)
    | None -> Alcotest.fail "TRAF workload missing"
  in
  let dump = dump_of r in
  check Alcotest.bool "tiny ring overflowed" true
    (dump.Repro_gpu.Telemetry.dropped > 0);
  check Alcotest.int "metric equals dump tally"
    dump.Repro_gpu.Telemetry.dropped
    (Stats.trace_dropped r.W.Harness.stats)

(* The exact bytes [repro trace traf cuda -s 0.01] writes. The ring keeps
   every sector transaction of this cell (nothing is dropped), in replay
   order, so the digest pins which sectors each memory record touches and
   the order they are priced in, not only the totals. *)
let test_trace_golden_digest () =
  let job =
    match
      Repro_exec.Request.Spec.resolve
        (Repro_exec.Request.Spec.make ~scale:0.01 ~seed:42 ~workload:"traf"
           ~technique:"cuda" ())
    with
    | Ok job -> job
    | Error msg -> Alcotest.fail msg
  in
  let p =
    { job.Repro_exec.Job.params with
      W.Workload.telemetry =
        Some
          { Repro_gpu.Telemetry.window = Some Repro_gpu.Telemetry.default_window;
            trace = true;
            trace_capacity = Repro_gpu.Telemetry.default_capacity } }
  in
  let r = W.Harness.run job.Repro_exec.Job.workload p in
  let dump = dump_of r in
  check Alcotest.int "no event dropped" 0 dump.Repro_gpu.Telemetry.dropped;
  let json =
    O.Tracer.to_json ~timeline:(timeline_of r) ~workload:r.W.Harness.workload
      ~technique:(Repro_exec.Job.column_name job) dump
  in
  check Alcotest.string "trace JSON digest" "5bfb27f5caf005916110e3b13404584d"
    (Digest.to_hex (Digest.string (Json.to_string ~pretty:true json)))

(* --- sinks ------------------------------------------------------------- *)

let test_series_json_round_trip () =
  let s =
    Series.make ~name:"fig6" ~title:"Figure 6" ~group_label:"workload"
      ~aggregate:"GM"
      [
        { Series.group = "TRAF"; series = "CUDA"; value = 0.89 };
        { Series.group = "TRAF"; series = "TP"; value = 1. /. 3. };
        { Series.group = "GM"; series = "CUDA"; value = 0.83 };
      ]
  in
  let json = O.Sink.series_to_json s in
  (match Json.of_string (Json.to_string ~pretty:true json) with
   | Ok parsed -> check Alcotest.bool "json round-trips" true (parsed = json)
   | Error msg -> Alcotest.failf "series JSON does not parse: %s" msg);
  match O.Sink.series_of_json json with
  | Ok s' -> check Alcotest.bool "series round-trips" true (s' = s)
  | Error msg -> Alcotest.failf "series_of_json: %s" msg

let test_series_of_json_rejects_garbage () =
  List.iter
    (fun j ->
      match O.Sink.series_of_json j with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "accepted malformed series JSON")
    [
      Json.Null;
      Json.Obj [ ("name", Json.String "x") ];
      Json.Obj
        [
          ("name", Json.String "x");
          ("title", Json.String "x");
          ("group_label", Json.String "g");
          ("points", Json.List [ Json.Obj [ ("group", Json.Int 3) ] ]);
        ];
    ]

let test_write_file () =
  let path = Filename.temp_file "repro_obs" ".json" in
  O.Sink.write_file ~path "{\"ok\":true}";
  let ic = open_in path in
  let contents = input_line ic in
  close_in ic;
  Sys.remove path;
  check Alcotest.string "written" "{\"ok\":true}" contents

(* --- service latency histograms ---------------------------------------- *)

module Hist = O.Hist

(* Spans the layout: below [lo] (bucket 0), mid-range latencies, the
   far tail, and exact zero. *)
let hist_sample_gen =
  QCheck.Gen.oneof
    [
      QCheck.Gen.float_range 0. 2e-6;
      QCheck.Gen.float_range 0. 0.5;
      QCheck.Gen.float_range 0. 5000.;
      QCheck.Gen.return 0.;
      QCheck.Gen.return 1e9;
    ]

let hist_samples_gen n = QCheck.Gen.(list_size (int_range 0 n) hist_sample_gen)

let hist_of_samples samples =
  let h = Hist.create () in
  List.iter (Hist.record h) samples;
  h

(* Integer components and extremes combine exactly; only sums are
   subject to float rounding under re-association. *)
let hist_int_equal a b =
  Hist.count a = Hist.count b
  && Hist.min_value a = Hist.min_value b
  && Hist.max_value a = Hist.max_value b
  &&
  let rec go i =
    i >= Hist.buckets
    || (Hist.bucket_count a i = Hist.bucket_count b i && go (i + 1))
  in
  go 0

let hist_merge_commutes =
  QCheck.Test.make ~count:100 ~name:"hist merge commutes"
    (QCheck.make QCheck.Gen.(pair (hist_samples_gen 40) (hist_samples_gen 40)))
    (fun (xs, ys) ->
      let a = hist_of_samples xs and b = hist_of_samples ys in
      Hist.equal (Hist.merge a b) (Hist.merge b a))

let hist_merge_associates =
  QCheck.Test.make ~count:100 ~name:"hist merge associates"
    (QCheck.make
       QCheck.Gen.(
         triple (hist_samples_gen 30) (hist_samples_gen 30)
           (hist_samples_gen 30)))
    (fun (xs, ys, zs) ->
      let a = hist_of_samples xs
      and b = hist_of_samples ys
      and c = hist_of_samples zs in
      let l = Hist.merge (Hist.merge a b) c
      and r = Hist.merge a (Hist.merge b c) in
      hist_int_equal l r
      && abs_float (Hist.sum l -. Hist.sum r)
         <= 1e-9 *. (abs_float (Hist.sum l) +. 1.))

let hist_quantile_monotone =
  QCheck.Test.make ~count:100 ~name:"hist quantile monotone in q"
    (QCheck.make
       QCheck.Gen.(
         triple
           (list_size (int_range 1 60) hist_sample_gen)
           (float_range 0. 1.) (float_range 0. 1.)))
    (fun (xs, q1, q2) ->
      let h = hist_of_samples xs in
      let qlo = min q1 q2 and qhi = max q1 q2 in
      match (Hist.quantile h qlo, Hist.quantile h qhi) with
      | Some (l1, u1), Some (l2, u2) -> l1 <= l2 && u1 <= u2
      | _ -> false)

let hist_value_within_bucket =
  QCheck.Test.make ~count:200
    ~name:"hist recorded value lies within its bucket bounds"
    (QCheck.make hist_sample_gen)
    (fun v ->
      let h = Hist.create () in
      Hist.record h v;
      let rec find i =
        if i >= Hist.buckets then None
        else if Hist.bucket_count h i = 1 then Some i
        else find (i + 1)
      in
      match find 0 with
      | None -> false
      | Some i ->
        let lo, hi = Hist.bucket_bounds i in
        lo <= v && v < hi)

let test_hist_basics () =
  let h = Hist.create () in
  check Alcotest.bool "empty quantile is None" true (Hist.quantile h 0.5 = None);
  check (Alcotest.float 0.) "empty mean" 0. (Hist.mean h);
  List.iter (Hist.record h) [ 0.004; 0.002; 0.008; 0.001 ];
  check Alcotest.int "count" 4 (Hist.count h);
  check (Alcotest.float 1e-12) "sum is exact" 0.015 (Hist.sum h);
  check (Alcotest.float 1e-12) "min is exact" 0.001 (Hist.min_value h);
  check (Alcotest.float 1e-12) "max is exact" 0.008 (Hist.max_value h);
  (match Hist.quantile h 1.0 with
   | Some (lo, hi) ->
     check Alcotest.bool "p100 bracket holds the max" true
       (lo <= 0.008 && 0.008 <= hi)
   | None -> Alcotest.fail "p100 of a non-empty histogram");
  (match Hist.quantile h 0.0 with
   | Some (lo, _) ->
     check Alcotest.bool "p0 clamps to the min" true (lo >= 0.001)
   | None -> Alcotest.fail "p0 of a non-empty histogram");
  Hist.record h (-5.);
  check (Alcotest.float 0.) "negative samples clamp to 0" 0.
    (Hist.min_value h);
  Hist.record h nan;
  check Alcotest.int "NaN recorded (as 0), not lost" 6 (Hist.count h);
  let snap = Hist.copy h in
  Hist.record h 1.0;
  check Alcotest.int "copy is a snapshot" 6 (Hist.count snap);
  Hist.clear h;
  check Alcotest.int "clear empties" 0 (Hist.count h)

let test_hist_json_round_trip () =
  let h = hist_of_samples [ 0.; 1e-7; 0.004; 0.004; 0.25; 3600.; 1e9 ] in
  let text = Json.to_string (Hist.to_json h) in
  match Json.of_string text with
  | Error msg -> Alcotest.failf "hist JSON does not parse: %s" msg
  | Ok j -> (
    match Json.Decode.run Hist.decoder j with
    | Error msg -> Alcotest.failf "hist does not decode: %s" msg
    | Ok h' ->
      check Alcotest.bool "observable state survives" true (Hist.equal h h');
      check Alcotest.string "byte-identical re-encoding" text
        (Json.to_string (Hist.to_json h')))

(* --- service metrics registry ------------------------------------------- *)

module Svc = O.Svc_metrics

let test_svc_registry_covers_snapshot () =
  (* A snapshot holds exactly the registry's values: bumping one entry
     moves that entry alone, and the wire form has one key per entry, in
     registry order. *)
  List.iter
    (fun m ->
      let live = Svc.create () in
      (match Svc.kind m with
       | Svc.Counter -> Svc.incr live m
       | Svc.Gauge -> Svc.set live m 1);
      let s = Svc.snapshot live in
      List.iter
        (fun m' ->
          check Alcotest.bool
            (Printf.sprintf "bumping %s moves %s" (Svc.name m) (Svc.name m'))
            (m == m')
            (Svc.value m' s <> Svc.value m' Svc.zero))
        Svc.all)
    Svc.all;
  let ids =
    match Svc.to_json Svc.zero with
    | Json.Obj kvs -> List.map fst kvs
    | _ -> Alcotest.fail "snapshot JSON is not an object"
  in
  check (Alcotest.list Alcotest.string) "one key per metric, registry order"
    (List.map Svc.name Svc.all) ids;
  let names = List.map Svc.name Svc.all in
  check Alcotest.int "no duplicate ids" (List.length names)
    (List.length (List.sort_uniq compare names));
  (match Svc.find "cache.stampede_avoided" with
   | Some m ->
     check Alcotest.string "find by id" "cache.stampede_avoided" (Svc.name m)
   | None -> Alcotest.fail "cache.stampede_avoided not registered");
  check Alcotest.bool "unknown id" true (Svc.find "no.such.metric" = None)

(* [Svc_metrics.all] is the key order of [ctl stats --json]'s [svc]
   object and of the [ctl stats] text line. *)
let test_svc_order_pinned () =
  check (Alcotest.list Alcotest.string) "Svc_metrics.all order"
    [ "jobs.submitted"; "jobs.executed"; "dedup.hits"; "cache.hits";
      "cache.misses"; "cache.stampede_avoided"; "requests.total";
      "requests.slow"; "responses.total"; "decode.errors"; "bytes.in";
      "bytes.out"; "worker.busy_s"; "sessions"; "queue.depth";
      "inflight.size"; "jobs.running" ]
    (List.map Svc.name Svc.all)

let sample_svc_snapshot () =
  let m = Svc.create () in
  List.iter
    (fun (metric, n) -> Svc.add m metric n)
    [ (Svc.jobs_submitted, 11); (Svc.jobs_executed, 7); (Svc.dedup_hits, 3);
      (Svc.cache_hits, 2); (Svc.cache_misses, 5); (Svc.stampede_avoided, 1);
      (Svc.requests, 20); (Svc.slow_requests, 2); (Svc.responses, 31);
      (Svc.decode_errors, 1); (Svc.bytes_in, 4096); (Svc.bytes_out, 8192) ];
  Svc.add_float m Svc.worker_busy_s 2.5;
  List.iter
    (fun (gauge, n) -> Svc.set m gauge n)
    [ (Svc.sessions, 3); (Svc.queue_depth, 4); (Svc.inflight, 5);
      (Svc.jobs_running, 2) ];
  Svc.snapshot m

let test_svc_values_and_json () =
  let s = sample_svc_snapshot () in
  let get id =
    match Svc.find id with
    | Some m -> Svc.value m s
    | None -> Alcotest.failf "%s not registered" id
  in
  check Alcotest.bool "jobs.submitted" true (get "jobs.submitted" = Svc.Int 11);
  check Alcotest.bool "requests.slow" true (get "requests.slow" = Svc.Int 2);
  check Alcotest.bool "worker.busy_s is a float" true
    (get "worker.busy_s" = Svc.Float 2.5);
  check Alcotest.bool "queue.depth" true (get "queue.depth" = Svc.Int 4);
  (match Svc.find "queue.depth" with
   | Some m -> check Alcotest.bool "gauges marked" true (Svc.kind m = Svc.Gauge)
   | None -> Alcotest.fail "queue.depth not registered");
  (match Svc.find "jobs.submitted" with
   | Some m ->
     check Alcotest.bool "counters marked" true (Svc.kind m = Svc.Counter)
   | None -> Alcotest.fail "jobs.submitted not registered");
  let text = Json.to_string (Svc.to_json s) in
  (match Json.of_string text with
   | Error msg -> Alcotest.failf "snapshot JSON does not parse: %s" msg
   | Ok j -> (
     match Json.Decode.run Svc.decoder j with
     | Error msg -> Alcotest.failf "snapshot does not decode: %s" msg
     | Ok s' ->
       check Alcotest.bool "snapshot survives" true (s = s');
       check Alcotest.string "byte-identical re-encoding" text
         (Json.to_string (Svc.to_json s'))));
  (* The decoder is lenient: a snapshot from an older daemon (missing
     ids) reads as zeros rather than failing. *)
  match Json.Decode.run Svc.decoder (Json.Obj []) with
  | Ok z -> check Alcotest.bool "missing ids default to zero" true (z = Svc.zero)
  | Error msg -> Alcotest.failf "empty object rejected: %s" msg

(* --- structured logging -------------------------------------------------- *)

let test_log_lines_exact () =
  let lines = ref [] in
  let t = ref 0.0 in
  let log =
    O.Log.make ~level:O.Log.Debug
      ~now:(fun () -> t := !t +. 0.5; !t)
      ~write:(fun line -> lines := line :: !lines)
      ()
  in
  O.Log.log log O.Log.Info "job.done"
    [
      ("trace", O.Log.Int 7);
      ("wall_s", O.Log.Float 0.051);
      ("cached", O.Log.Bool false);
      ("key", O.Log.Str "TRAF/tp");
    ];
  O.Log.log log O.Log.Warn "request.slow" [ ("msg", O.Log.Str "a b=c") ];
  O.Log.log log O.Log.Debug "empty.value" [ ("v", O.Log.Str "") ];
  check
    Alcotest.(list string)
    "exact lines, fake clock"
    [
      "ts=0.500000 level=info event=job.done trace=7 wall_s=0.051000 \
       cached=false key=TRAF/tp";
      "ts=1.000000 level=warn event=request.slow msg=\"a b=c\"";
      "ts=1.500000 level=debug event=empty.value v=\"\"";
    ]
    (List.rev !lines)

let test_log_level_filtering () =
  let hits = ref 0 in
  let log =
    O.Log.make ~level:O.Log.Warn ~now:(fun () -> 0.)
      ~write:(fun _ -> incr hits)
      ()
  in
  check Alcotest.bool "debug off" false (O.Log.enabled log O.Log.Debug);
  check Alcotest.bool "info off" false (O.Log.enabled log O.Log.Info);
  check Alcotest.bool "warn on" true (O.Log.enabled log O.Log.Warn);
  check Alcotest.bool "error on" true (O.Log.enabled log O.Log.Error);
  O.Log.log log O.Log.Info "suppressed" [];
  check Alcotest.int "below threshold writes nothing" 0 !hits;
  O.Log.log log O.Log.Error "boom" [];
  check Alcotest.int "at threshold writes" 1 !hits;
  check Alcotest.bool "null logger never enabled" false
    (O.Log.enabled O.Log.null O.Log.Error);
  check Alcotest.bool "warning alias" true
    (O.Log.level_of_string "Warning" = Ok O.Log.Warn);
  check Alcotest.bool "unknown level rejected" true
    (Result.is_error (O.Log.level_of_string "loud"))

(* --- span ring ------------------------------------------------------------ *)

(* The daemon's use of the one event ring: a span per stage, kind = the
   stage index, arg_a = the trace id, seconds on the clock. *)
let test_span_ring () =
  let module R = Repro_util.Event_ring in
  let ring = R.create ~capacity:4 in
  check Alcotest.int "empty dump" 0 (Array.length (R.events ring));
  let run = Svc.stage_index Svc.Run in
  for i = 1 to 6 do
    R.record ring ~kind:run ~track:0 ~a:i ~b:0 ~ts:(float_of_int i) ~dur:0.5
  done;
  check Alcotest.int "survivors plus drops count every record" 6
    (R.length ring + R.all_dropped ring);
  check Alcotest.int "dropped = recorded - capacity" 2 (R.all_dropped ring);
  let spans = R.events ring in
  check Alcotest.int "capacity survivors" 4 (Array.length spans);
  check Alcotest.bool "oldest first, newest kept" true
    (Array.to_list (Array.map (fun (e : R.event) -> e.arg_a) spans)
     = [ 3; 4; 5; 6 ]);
  let j =
    O.Tracer.chrome ~tracks:[ (0, "events") ] ~scale:1e6 ~meta:[]
      ~describe:(fun (e : R.event) ->
        (Svc.stage_name e.kind, e.track, [ ("trace", O.Json.Int e.arg_a) ]))
      spans
  in
  (match O.Tracer.validate j with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "span trace fails validation: %s" msg);
  match Option.bind (O.Json.member "traceEvents" j) O.Json.list_opt with
  | Some (_ :: first :: _) ->
    check Alcotest.bool "named by stage, microseconds" true
      (O.Json.member "name" first = Some (O.Json.String "run")
       && O.Json.member "ts" first = Some (O.Json.Float 3e6))
  | _ -> Alcotest.fail "no span events"

(* --- the request-path allocation discipline ------------------------------- *)

let test_obs_zero_allocation () =
  (* The replay's zero-allocation invariant extended to the service
     layer: the primitives that sit on the daemon's request path
     allocate nothing per event — Hist.record, Ring.record, a log call
     on the null logger, the null clock and a service-counter bump. 10k
     iterations may not allocate more than a constant slack over 0 (a
     per-event box would show up as >= 20k words). *)
  let h = Hist.create () in
  let ring = Repro_util.Event_ring.create ~capacity:64 in
  Hist.record h 0.001;
  Repro_util.Event_ring.record ring ~kind:0 ~track:0 ~a:0 ~b:0 ~ts:0. ~dur:0.;
  O.Log.log O.Log.null O.Log.Error "warm" [];
  let svc = Svc.create () in
  Svc.incr svc Svc.requests;
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let hist_w = words (fun () -> for _ = 1 to 10_000 do Hist.record h 0.004 done) in
  let ring_w =
    words (fun () ->
        for _ = 1 to 10_000 do
          Repro_util.Event_ring.record ring ~kind:4 ~track:1 ~a:2 ~b:0
            ~ts:0.1 ~dur:0.2
        done)
  in
  let log_w =
    words (fun () ->
        for _ = 1 to 10_000 do
          O.Log.log O.Log.null O.Log.Error "e" []
        done)
  in
  let clock = Sys.opaque_identity Svc.null_clock in
  let clock_w =
    words (fun () ->
        for _ = 1 to 10_000 do
          ignore (Sys.opaque_identity (clock ()))
        done)
  in
  let bump_w =
    words (fun () ->
        for _ = 1 to 10_000 do
          Svc.incr svc Svc.requests;
          Svc.add svc Svc.bytes_out 512
        done)
  in
  check Alcotest.bool
    (Printf.sprintf "Hist.record allocates nothing (%.0f words)" hist_w)
    true (hist_w <= 256.);
  check Alcotest.bool
    (Printf.sprintf "null clock allocates nothing (%.0f words)" clock_w)
    true (clock_w <= 256.);
  check Alcotest.bool
    (Printf.sprintf "counter bump allocates nothing (%.0f words)" bump_w)
    true (bump_w <= 256.);
  check Alcotest.bool
    (Printf.sprintf "Ring.record allocates nothing (%.0f words)" ring_w)
    true (ring_w <= 256.);
  check Alcotest.bool
    (Printf.sprintf "null log allocates nothing (%.0f words)" log_w)
    true (log_w <= 256.)

let suite =
  [
    Alcotest.test_case "json round trip" `Quick test_json_round_trip;
    Alcotest.test_case "json float exactness" `Quick test_json_float_exactness;
    Alcotest.test_case "json parse errors" `Quick test_json_parse_errors;
    Alcotest.test_case "json accessors" `Quick test_json_accessors;
    QCheck_alcotest.to_alcotest prop_float_repr_reference;
    QCheck_alcotest.to_alcotest prop_int_round_trip;
    QCheck_alcotest.to_alcotest prop_number_tokens;
    Alcotest.test_case "registry covers every Stats field" `Quick
      test_registry_covers_stats;
    Alcotest.test_case "registry names unique" `Quick test_registry_names_unique;
    Alcotest.test_case "registry order pinned" `Quick test_registry_order_pinned;
    Alcotest.test_case "registry find" `Quick test_registry_find;
    Alcotest.test_case "registry values match getters" `Quick
      test_registry_values_match_getters;
    Alcotest.test_case "profile deltas sum to totals" `Quick
      test_profile_deltas_sum_to_totals;
    Alcotest.test_case "profile detects tampering" `Quick
      test_profile_detects_tampering;
    Alcotest.test_case "profile json round trip" `Quick
      test_profile_json_round_trip;
    Alcotest.test_case "profile csv shape" `Quick test_profile_csv_shape;
    Alcotest.test_case "timeline window sums are bit-exact" `Slow
      test_timeline_window_sums;
    Alcotest.test_case "timeline series and json" `Quick
      test_timeline_series_and_json;
    Alcotest.test_case "trace json round trip" `Quick test_trace_json_round_trip;
    Alcotest.test_case "trace events within kernel spans" `Quick
      test_trace_events_within_kernel_spans;
    Alcotest.test_case "trace dropped counter" `Quick test_trace_dropped_counter;
    Alcotest.test_case "trace JSON golden digest" `Quick test_trace_golden_digest;
    Alcotest.test_case "series json round trip" `Quick test_series_json_round_trip;
    Alcotest.test_case "series json rejects garbage" `Quick
      test_series_of_json_rejects_garbage;
    Alcotest.test_case "sink write file" `Quick test_write_file;
    QCheck_alcotest.to_alcotest hist_merge_commutes;
    QCheck_alcotest.to_alcotest hist_merge_associates;
    QCheck_alcotest.to_alcotest hist_quantile_monotone;
    QCheck_alcotest.to_alcotest hist_value_within_bucket;
    Alcotest.test_case "hist basics and exact totals" `Quick test_hist_basics;
    Alcotest.test_case "hist json round trip" `Quick test_hist_json_round_trip;
    Alcotest.test_case "svc registry covers every snapshot field" `Quick
      test_svc_registry_covers_snapshot;
    Alcotest.test_case "svc registry order pinned" `Quick test_svc_order_pinned;
    Alcotest.test_case "svc values match getters; json round trip" `Quick
      test_svc_values_and_json;
    Alcotest.test_case "log lines are exact under a fake clock" `Quick
      test_log_lines_exact;
    Alcotest.test_case "log level filtering" `Quick test_log_level_filtering;
    Alcotest.test_case "span ring drops oldest, dumps in order" `Quick
      test_span_ring;
    Alcotest.test_case "request-path primitives allocate nothing" `Quick
      test_obs_zero_allocation;
  ]
