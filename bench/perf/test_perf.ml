(* The benchmark's own rules, on synthetic samples: no simulation runs. *)

open Perf_bench
module Json = Repro_obs.Json

let close = Alcotest.float 1e-12
let triple = Alcotest.(triple close close close)

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  Alcotest.check triple "1..10" (2.75, 5.5, 8.25)
    (Stat.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check triple "unsorted odd" (1.2, 3.1, 5.5) (Stat.quartiles [| 3.1; 1.2; 5.5 |]);
  Alcotest.check triple "two samples extrapolate" (0.25, 2.5, 4.75) (Stat.quartiles [| 4.0; 1.0 |]);
  Alcotest.check triple "five" (0.375, 0.75, 1.5) (Stat.quartiles [| 0.5; 0.25; 0.75; 1.0; 2.0 |]);
  Alcotest.check close "median even" 2.5 (Stat.median [| 4.; 1.; 2.; 3. |]);
  Alcotest.check close "spread: IQR 5.5 over median 5.5" 1.
    (Stat.spread (Array.init 10 (fun i -> float_of_int (i + 1))))

let test_tail_percentile () =
  let pct = Alcotest.(option (float 0.)) in
  Alcotest.check pct "10000 samples: p99.9 leaves 10" (Some 99.9) (Stat.tail_percentile 10000);
  Alcotest.check pct "9999 samples: p99.9 leaves 9" (Some 99.) (Stat.tail_percentile 9999);
  Alcotest.check pct "1000 samples" (Some 99.) (Stat.tail_percentile 1000);
  Alcotest.check pct "200 samples" (Some 95.) (Stat.tail_percentile 200);
  Alcotest.check pct "199 samples" (Some 90.) (Stat.tail_percentile 199);
  Alcotest.check pct "20 samples" (Some 50.) (Stat.tail_percentile 20);
  Alcotest.check pct "19 samples" None (Stat.tail_percentile 19);
  Alcotest.(check int) "beyond p95 of 264" 13 (Stat.beyond ~n:264 95.);
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check close "nearest rank p90" 90. (Stat.percentile xs 90.);
  Alcotest.check close "p100 is the max" 100. (Stat.percentile xs 100.)

let verdict = Alcotest.testable (fun f v -> Format.pp_print_string f (Rule.verdict_name v)) ( = )

(* Ten parent runs around 100 with an IQR of about 2. *)
let parent = [| 100.; 101.; 99.; 100.5; 99.5; 102.; 98.; 100.; 101.; 99. |]
let shifted d = Array.map (fun x -> x +. d) parent
let judge ?(better = Metrics.Lower) ?(bound = Some 0.10) change =
  Rule.judge better ~bound ~parent ~change

let test_rule () =
  Alcotest.check verdict "10/10 faster by more than the IQR" Rule.Gain (judge (shifted (-5.)));
  Alcotest.check verdict "higher is better mirrors it" Rule.Gain
    (judge ~better:Metrics.Higher (shifted 5.));
  Alcotest.check verdict "faster, but by less than the IQR" Rule.Unchanged (judge (shifted (-1.)));
  let eight_of_ten = Array.mapi (fun i x -> if i < 2 then x +. 0.5 else x -. 5.) parent in
  Alcotest.check verdict "8/10 wins is not a gain" Rule.Unchanged (judge eight_of_ten);
  Alcotest.check verdict "worse by 5% in 10/10 pairs, within a 10% bound" Rule.Worse
    (judge (shifted 5.));
  let mixed = Array.mapi (fun i x -> if i < 2 then x -. 0.5 else x +. 5.) parent in
  Alcotest.check verdict "worse by 5% in 8/10 pairs, within the bound" Rule.Unchanged
    (judge mixed);
  Alcotest.check verdict "worse by 15% beyond a 10% bound" Rule.Regression (judge (shifted 15.));
  Alcotest.check verdict "no bound: never a regression" Rule.Worse
    (judge ~bound:None (shifted 15.));
  let noisy = [| 60.; 140.; 80.; 120.; 100.; 70.; 130.; 90.; 110.; 100. |] in
  Alcotest.check verdict "spread wider than the bound" Rule.Unresolved (judge noisy);
  Alcotest.check verdict "wide spread, but every change run beats every parent run" Rule.Gain
    (Rule.judge Metrics.Lower ~bound:(Some 0.01) ~parent ~change:(shifted (-20.)))

(* BENCHMARK.json must list exactly the registry's metrics. *)
let test_benchmark_json () =
  let doc =
    match Json.of_string (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all) with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let entries key = Option.value ~default:[] (Option.bind (Json.member key doc) Json.list_opt) in
  let row j =
    let s k = Option.value ~default:"" (Option.bind (Json.member k j) Json.string_opt) in
    (s "name", s "unit", s "better", Option.bind (Json.member "bound" j) Json.float_opt)
  in
  let def (d : Metrics.def) = (d.name, d.unit_, Metrics.better_name d.better, d.bound) in
  let rows = Alcotest.(list (pair (pair string string) (pair string (option (float 0.))))) in
  let flat = List.map (fun (a, b, c, d) -> ((a, b), (c, d))) in
  let check key defs =
    Alcotest.check rows key (flat (List.map def defs)) (flat (List.map row (entries key)))
  in
  check "end_to_end" Metrics.end_to_end;
  check "per_layer" Metrics.per_layer

(* Self time is a span's duration minus its children's, read back from
   the Chrome trace document alone. *)
let test_self_times () =
  let s = Spans.create ~tid:1 in
  let root = Spans.start s "cell" in
  Spans.record s ~parent:(Spans.id root) "build" ~t0:Spans.epoch ~t1:(Spans.epoch +. 1.);
  Spans.stop root;
  let written = Spans.to_chrome ~pid:1 ~threads:[ (1, "main") ] [ s ] in
  Alcotest.(check bool) "valid Chrome trace" true (Repro_obs.Tracer.validate written = Ok ());
  Alcotest.(check (list string)) "names" [ "build"; "cell" ]
    (List.sort compare (List.map (fun r -> r.Spans.name) (Spans.self_times written)));
  let x name ?id ?parent ts dur =
    let ids =
      List.filter_map Fun.id
        [
          Option.map (fun i -> ("id", Json.Int i)) id;
          Option.map (fun p -> ("parent", Json.Int p)) parent;
        ]
    in
    Json.Obj
      [
        ("name", Json.String name);
        ("ph", Json.String "X");
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ("ts", Json.Float (ts *. 1e6));
        ("dur", Json.Float (dur *. 1e6));
        ("args", Json.Obj ids);
      ]
  in
  let doc =
    Json.Obj
      [
        ( "traceEvents",
          Json.List
            [
              x "cell" ~id:1 0. 10.;
              x "build" ~id:2 ~parent:1 0. 1.;
              x "iteration" ~id:3 ~parent:1 1. 3.;
              x "iteration" ~id:4 ~parent:1 4. 2.;
              x "run" 0. 2.;
            ] );
      ]
  in
  let rows = Spans.self_times doc in
  let row name = List.find (fun r -> r.Spans.name = name) rows in
  let sec = Alcotest.float 1e-9 in
  Alcotest.check sec "cell self = 10 - 1 - 3 - 2" 4. (row "cell").Spans.self_s;
  Alcotest.check sec "iteration total" 5. (Spans.total rows "iteration");
  Alcotest.(check int) "iteration count" 2 (row "iteration").Spans.count;
  Alcotest.check sec "a span without an id has no children" 2. (row "run").Spans.self_s

let () =
  Alcotest.run "perf"
    [
      ( "stat",
        [
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "tail percentile keeps 10 beyond" `Quick test_tail_percentile;
        ] );
      ("rule", [ Alcotest.test_case "win, IQR, bound, unresolved" `Quick test_rule ]);
      ("registry", [ Alcotest.test_case "BENCHMARK.json matches" `Quick test_benchmark_json ]);
      ("spans", [ Alcotest.test_case "self time from the file" `Quick test_self_times ]);
    ]
