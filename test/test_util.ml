(* Unit and property tests for the util substrate. *)

module Rng = Repro_util.Rng
module Mathx = Repro_util.Mathx
module Vec = Repro_util.Vec

let check = Alcotest.check

let test_rng_deterministic () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:1 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let diff = ref false in
  for _ = 1 to 10 do
    if Rng.next a <> Rng.next b then diff := true
  done;
  check Alcotest.bool "different seeds differ" true !diff

let test_rng_int_bounds () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 7 in
    check Alcotest.bool "in range" true (v >= 0 && v < 7)
  done;
  (* The historical overflow bug: large bounds must not loop forever. *)
  let v = Rng.int rng (1 lsl 60) in
  check Alcotest.bool "huge bound terminates" true (v >= 0);
  Alcotest.check_raises "bound beyond draw range"
    (Invalid_argument "Rng.int: bound exceeds the 61-bit draw range") (fun () ->
      ignore (Rng.int rng max_int))

let test_rng_int_rejects_bad_bound () =
  let rng = Rng.create ~seed:4 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_shuffle_permutes () =
  let rng = Rng.create ~seed:5 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "permutation" (Array.init 50 Fun.id) sorted

let test_rng_split_independent () =
  let a = Rng.create ~seed:6 in
  let b = Rng.split a in
  check Alcotest.bool "split differs from parent" true (Rng.next a <> Rng.next b)

let test_rng_copy () =
  let a = Rng.create ~seed:7 in
  ignore (Rng.next a);
  let b = Rng.copy a in
  check Alcotest.int "copy continues identically" (Rng.next a) (Rng.next b)

let test_mathx_mean_geomean () =
  check (Alcotest.float 1e-9) "mean" 2. (Mathx.mean [ 1.; 2.; 3. ]);
  check (Alcotest.float 1e-9) "geomean" 2. (Mathx.geomean [ 1.; 4. ]);
  Alcotest.check_raises "empty mean" (Invalid_argument "Mathx.mean: empty list")
    (fun () -> ignore (Mathx.mean []));
  Alcotest.check_raises "geomean non-positive"
    (Invalid_argument "Mathx.geomean: non-positive input") (fun () ->
      ignore (Mathx.geomean [ 1.; 0. ]))

let test_mathx_int_helpers () =
  check Alcotest.int "ilog2 1" 0 (Mathx.ilog2 1);
  check Alcotest.int "ilog2 8" 3 (Mathx.ilog2 8);
  check Alcotest.int "ilog2 9" 3 (Mathx.ilog2 9);
  check Alcotest.int "ceil_pow2 1" 1 (Mathx.ceil_pow2 1);
  check Alcotest.int "ceil_pow2 5" 8 (Mathx.ceil_pow2 5);
  check Alcotest.int "ceil_div exact" 2 (Mathx.ceil_div 8 4);
  check Alcotest.int "ceil_div round" 3 (Mathx.ceil_div 9 4);
  check (Alcotest.float 1e-9) "clamp hi" 2. (Mathx.clamp ~lo:0. ~hi:2. 5.);
  check (Alcotest.float 1e-9) "percent" 50. (Mathx.percent 1. 2.);
  check (Alcotest.float 1e-9) "percent of zero" 0. (Mathx.percent 1. 0.)

let test_vec_basics () =
  let v = Vec.create () in
  check Alcotest.bool "fresh empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  check Alcotest.int "length" 100 (Vec.length v);
  check Alcotest.int "get" 42 (Vec.get v 42);
  Vec.set v 42 (-1);
  check Alcotest.int "set" (-1) (Vec.get v 42);
  check Alcotest.int "fold" (4950 - 43) (Vec.fold_left ( + ) 0 v);
  Vec.clear v;
  check Alcotest.int "cleared" 0 (Vec.length v);
  Alcotest.check_raises "oob" (Invalid_argument "Vec.get: index out of bounds")
    (fun () -> ignore (Vec.get v 0))

let test_vec_roundtrip () =
  let a = [| 3; 1; 4; 1; 5 |] in
  check (Alcotest.array Alcotest.int) "of/to array" a (Vec.to_array (Vec.of_array a))

let prop_rng_int_uniform_range =
  QCheck.Test.make ~name:"rng int stays in range" ~count:500
    QCheck.(pair small_nat (int_bound 1000))
    (fun (seed, bound) ->
      let bound = bound + 1 in
      let rng = Rng.create ~seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_vec_push_get =
  QCheck.Test.make ~name:"vec behaves like a list" ~count:200
    QCheck.(small_list int)
    (fun xs ->
      let v = Vec.create () in
      List.iter (Vec.push v) xs;
      List.mapi (fun i _ -> Vec.get v i) xs = xs)

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng rejects bad bound" `Quick test_rng_int_rejects_bad_bound;
    Alcotest.test_case "rng shuffle permutes" `Quick test_rng_shuffle_permutes;
    Alcotest.test_case "rng split independent" `Quick test_rng_split_independent;
    Alcotest.test_case "rng copy" `Quick test_rng_copy;
    Alcotest.test_case "mathx mean/geomean" `Quick test_mathx_mean_geomean;
    Alcotest.test_case "mathx int helpers" `Quick test_mathx_int_helpers;
    Alcotest.test_case "vec basics" `Quick test_vec_basics;
    Alcotest.test_case "vec roundtrip" `Quick test_vec_roundtrip;
    QCheck_alcotest.to_alcotest prop_rng_int_uniform_range;
    QCheck_alcotest.to_alcotest prop_vec_push_get;
  ]
