module Json = Repro_obs.Json
module Stats = Repro_gpu.Stats

let path = "bench/perf/digests.json"
let seed = 42

(* The whole raw snapshot, marshalled: every field, a field added later
   included, and floats bit for bit. *)
let of_stats stats =
  Digest.to_hex
    (Digest.string (Marshal.to_string (Stats.to_raw stats) [ Marshal.No_sharing ]))

type table = (string * (string * string) list) list

let load () : table =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let decode = Json.Decode.(run (field "workloads" (obj (obj string)))) in
  match Result.bind (Json.of_string text) decode with
  | Ok t -> t
  | Error e -> failwith (path ^ ": " ^ e)

let check (table : table) ~seed:s ~workload seen =
  if s <> seed then ([], 0)
  else begin
    let committed = Option.value ~default:[] (List.assoc_opt workload table) in
    let differs (key, d) =
      match List.assoc_opt key committed with
      | Some e when e <> d -> Some (key ^ ": stats digest differs from " ^ path)
      | _ -> None
    in
    ( List.filter_map differs seen,
      List.length (List.filter (fun (key, _) -> not (List.mem_assoc key committed)) seen) )
  end

let save (table : table) =
  let sorted l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  let json =
    Json.Obj
      [
        ("seed", Json.Int seed);
        ( "workloads",
          Json.Obj
            (List.map
               (fun (w, cells) ->
                 (w, Json.Obj (List.map (fun (k, d) -> (k, Json.String d)) (sorted cells))))
               (sorted table)) );
      ]
  in
  Repro_obs.Sink.write_file ~path (Json.to_string ~pretty:true json)

let merge (table : table) ~workload cells : table =
  let old = Option.value ~default:[] (List.assoc_opt workload table) in
  let fresh = List.filter (fun (k, _) -> not (List.mem_assoc k cells)) old @ cells in
  (workload, fresh) :: List.remove_assoc workload table
