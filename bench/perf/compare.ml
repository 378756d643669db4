(* Apply the comparison rule (rule.mli) to two sets of perf.exe --out
   files:

     dune exec bench/perf/compare.exe -- A1.json ... An.json -- B1.json ... Bn.json

   A is the parent, B the change; file i of each side is pair i, made
   back to back with the side that runs first alternating. Prints one
   row per (workload, metric) with each side's median and quartiles, the
   change's wins and the verdict. Exits 1 on a regression, a higher
   failure share on B, or any stats digest that differs between the
   sides for the same seed; 2 on bad input (including fewer than 10
   pairs). *)

module Json = Repro_obs.Json

let load path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let doc = match Json.of_string text with Ok d -> d | Error e -> failwith (path ^ ": " ^ e) in
  match Option.bind (Json.member "workloads" doc) Json.list_opt with
  | None -> failwith (path ^ ": no \"workloads\" list (is this a perf.exe --out file?)")
  | Some l ->
    List.map
      (fun j -> match Outcome.of_json j with Ok o -> o | Error e -> failwith (path ^ ": " ^ e))
      l

let of_workload side workload = List.filter (fun (o : Outcome.t) -> o.workload = workload) side

let values side ~workload ~metric =
  of_workload side workload
  |> List.filter_map (fun (o : Outcome.t) -> List.assoc_opt metric o.metrics)
  |> Array.of_list

let share side ~workload =
  let sum f = List.fold_left (fun n o -> n + f o) 0 (of_workload side workload) in
  let a = sum (fun o -> o.Outcome.attempted) in
  if a = 0 then 0. else float_of_int (sum (fun o -> o.Outcome.failed)) /. float_of_int a

let digest_diffs a b =
  List.concat_map
    (fun (x : Outcome.t) ->
      List.concat_map
        (fun (y : Outcome.t) ->
          if x.workload <> y.workload || x.seed <> y.seed then []
          else
            List.filter_map
              (fun (k, d) ->
                match List.assoc_opt k y.digests with
                | Some d' when d' <> d ->
                  Some (Printf.sprintf "%s seed %d %s" x.workload x.seed k)
                | _ -> None)
              x.digests)
        b)
    a
  |> List.sort_uniq compare

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> (List.rev acc, [])
  in
  let fa, fb = split [] args in
  let die msg =
    prerr_endline ("compare: " ^ msg);
    prerr_endline "usage: compare.exe A.json... -- B.json...";
    exit 2
  in
  if List.length fa <> List.length fb then die "both sides need the same number of runs";
  if List.length fa < Rule.min_pairs then
    die (Printf.sprintf "need at least %d pairs, got %d" Rule.min_pairs (List.length fa));
  let a, b =
    try (List.concat_map load fa, List.concat_map load fb) with Failure e | Sys_error e -> die e
  in
  let workloads = List.sort_uniq compare (List.map (fun (o : Outcome.t) -> o.workload) a) in
  let failed = ref false in
  Printf.printf "%-13s %-32s %-30s %-30s %6s %7s  %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "delta" "B wins" "verdict";
  let cell xs =
    let q1, q2, q3 = Stat.quartiles xs in
    Printf.sprintf "%.5g [%.5g, %.5g]" q2 q1 q3
  in
  List.iter
    (fun workload ->
      List.iter
        (fun (d : Metrics.def) ->
          let pa = values a ~workload ~metric:d.name and pb = values b ~workload ~metric:d.name in
          if Array.length pa > 0 && Array.length pb > 0 then begin
            let verdict = Rule.judge d.better ~bound:d.bound ~parent:pa ~change:pb in
            if verdict = Rule.Regression then failed := true;
            let w, _, n = Rule.wins d.better ~parent:pa ~change:pb in
            let ma = Stat.median pa and mb = Stat.median pb in
            Printf.printf "%-13s %-32s %-30s %-30s %+5.1f%% %4d/%-2d  %s\n" workload d.name
              (cell pa) (cell pb)
              (if ma = 0. then 0. else 100. *. (mb -. ma) /. Float.abs ma)
              w n (Rule.verdict_name verdict)
          end)
        (Metrics.end_to_end @ Metrics.per_layer);
      let sa = share a ~workload and sb = share b ~workload in
      if sb > sa then begin
        failed := true;
        Printf.printf "%-13s failure share rose: %.4f -> %.4f\n" workload sa sb
      end)
    workloads;
  List.iter
    (fun d ->
      failed := true;
      Printf.printf "stats digest differs: %s\n" d)
    (digest_diffs a b);
  exit (if !failed then 1 else 0)
