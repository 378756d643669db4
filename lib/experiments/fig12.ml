module W = Repro_workloads
module T = Repro_core.Technique
module Series = Repro_report.Series

type point = {
  variant : string;
  n_objects : int;
  n_types : int;
  cycles : float;
  norm_time : float;
}

let object_counts = [ 32_768; 65_536; 131_072; 262_144; 524_288; 1_048_576 ]

let type_counts = [ 1; 2; 4; 8; 16; 32 ]

let variants =
  [ ("BRANCH", W.Ubench.Branch);
    ("CUDA", W.Ubench.Technique T.Cuda);
    ("COAL", W.Ubench.Technique T.Coal);
    ("TP", W.Ubench.Technique T.type_pointer);
    ("DYNA", W.Ubench.Column (T.Cuda, Repro_core.Alloc_family.Dyna_soa)) ]

let scaled scale n = max 1024 (int_of_float (float_of_int n *. scale))

let sweep ?(j = 1) ~configs () =
  (* configs: (n_objects, n_types) list; normalize to the first BRANCH.
     The ubench cells don't go through Workload.params, so they use the
     generic pool directly rather than the Job layer; order is preserved
     by construction. *)
  let cells =
    Array.of_list
      (List.concat_map
         (fun (n_objects, n_types) ->
           List.map
             (fun (name, variant) -> (name, variant, n_objects, n_types))
             variants)
         configs)
  in
  let raw =
    Repro_util.Pool.map ~jobs:j
      ~f:(fun (name, variant, n_objects, n_types) ->
        let cycles, _result = W.Ubench.run ~n_objects ~n_types variant in
        (name, n_objects, n_types, cycles))
      cells
    |> Array.to_list
    |> List.map (function Ok cell -> cell | Error e -> raise e)
  in
  let base =
    match raw with
    | ("BRANCH", _, _, cycles) :: _ -> cycles
    | _ -> invalid_arg "Fig12.sweep: BRANCH must come first"
  in
  List.map
    (fun (variant, n_objects, n_types, cycles) ->
      { variant; n_objects; n_types; cycles; norm_time = cycles /. base })
    raw

let sweep_for_test ~configs = sweep ~configs ()

let run_object_sweep ?(scale = 1.0) ?j () =
  sweep ?j ~configs:(List.map (fun n -> (scaled scale n, 4)) object_counts) ()

let run_type_sweep ?(scale = 1.0) ?j () =
  let n_objects = scaled scale 524_288 in
  sweep ?j ~configs:(List.map (fun t -> (n_objects, t)) type_counts) ()

let series_of ~name ~title ~group_label ~x_of points =
  Series.make ~name ~title ~group_label
    (List.map
       (fun p ->
         {
           Series.group = string_of_int (x_of p);
           series = p.variant;
           value = p.norm_time;
         })
       points)

let object_series points =
  series_of ~name:"fig12a"
    ~title:
      "Figure 12a: execution time normalized to BRANCH at the smallest size \
       (4 types; object scaling)"
    ~group_label:"objects" ~x_of:(fun p -> p.n_objects) points

let type_series points =
  series_of ~name:"fig12b"
    ~title:
      "Figure 12b: execution time normalized to BRANCH with 1 type (fixed \
       objects; type scaling)"
    ~group_label:"types" ~x_of:(fun p -> p.n_types) points
