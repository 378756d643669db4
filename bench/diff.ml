(* Compares two figure trajectory files, as written by
   [repro figure ID... --json PATH].

   Usage: diff.exe [--ignore-series NAME]... BASELINE CURRENT

   The harness is deterministic at a fixed scale, so any change in the
   series data is a real behavioural change; the volatile metadata that
   older baselines carry ("label", "workers", "generated_unix") is
   ignored. --ignore-series
   drops every series point named NAME from both files before comparing —
   the gate for "adding column NAME left the existing columns
   byte-identical". Exit 0 when the trajectories match, 1 when they
   differ, 2 on usage or parse errors. *)

module Json = Repro_obs.Json

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "bench-diff: %s\n" msg;
      exit 2)
    fmt

let volatile = [ "label"; "workers"; "generated_unix" ]

(* Drop every {"series": NAME, ...} point object (and any aggregate row
   of that series) from list contexts, recursively. *)
let rec strip_series ignored = function
  | Json.Obj fields ->
    Json.Obj (List.map (fun (k, v) -> (k, strip_series ignored v)) fields)
  | Json.List xs ->
    Json.List
      (List.filter_map
         (fun x ->
           match x with
           | Json.Obj fields
             when (match List.assoc_opt "series" fields with
                   | Some (Json.String s) ->
                     (* "NAME:MEM"-style breakdown rows count as NAME's. *)
                     List.exists
                       (fun n ->
                         s = n || String.starts_with ~prefix:(n ^ ":") s)
                       ignored
                   | _ -> false) ->
             None
           | x -> Some (strip_series ignored x))
         xs)
  | j -> j

let load path =
  if not (Sys.file_exists path) then usage_error "no such file: %s" path;
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.of_string contents with
  | Ok (Json.Obj fields) ->
    Json.Obj (List.filter (fun (k, _) -> not (List.mem k volatile)) fields)
  | Ok _ -> usage_error "%s: expected a JSON object at top level" path
  | Error e -> usage_error "%s: %s" path e

(* Structural diff, collecting a JSON-pointer-ish path per mismatch. *)
let rec diff path a b acc =
  match (a, b) with
  | Json.Obj xs, Json.Obj ys ->
    let keys =
      List.sort_uniq compare (List.map fst xs @ List.map fst ys)
    in
    List.fold_left
      (fun acc k ->
        let sub = path ^ "/" ^ k in
        match (List.assoc_opt k xs, List.assoc_opt k ys) with
        | Some x, Some y -> diff sub x y acc
        | Some _, None -> (sub, "present in baseline, missing now") :: acc
        | None, Some _ -> (sub, "absent from baseline, present now") :: acc
        | None, None -> acc)
      acc keys
  | Json.List xs, Json.List ys ->
    if List.length xs <> List.length ys then
      ( path,
        Printf.sprintf "length %d in baseline, %d now" (List.length xs)
          (List.length ys) )
      :: acc
    else
      List.fold_left
        (fun (i, acc) (x, y) ->
          (i + 1, diff (Printf.sprintf "%s/%d" path i) x y acc))
        (0, acc)
        (List.combine xs ys)
      |> snd
  | _ ->
    if a = b then acc
    else
      ( path,
        Printf.sprintf "baseline %s, now %s" (Json.to_string a)
          (Json.to_string b) )
      :: acc

let () =
  let rec parse ignored paths = function
    | [] -> (List.rev ignored, List.rev paths)
    | "--ignore-series" :: name :: rest -> parse (name :: ignored) paths rest
    | [ "--ignore-series" ] -> usage_error "--ignore-series needs a NAME"
    | arg :: rest -> parse ignored (arg :: paths) rest
  in
  let ignored, paths = parse [] [] (List.tl (Array.to_list Sys.argv)) in
  let baseline_path, current_path =
    match paths with
    | [ a; b ] -> (a, b)
    | _ ->
      usage_error "usage: diff.exe [--ignore-series NAME]... BASELINE CURRENT"
  in
  let load path = strip_series ignored (load path) in
  let mismatches =
    List.rev (diff "" (load baseline_path) (load current_path) [])
  in
  match mismatches with
  | [] ->
    Printf.printf "bench-diff: %s matches %s\n" current_path baseline_path
  | ms ->
    List.iter (fun (path, what) -> Printf.printf "  %s: %s\n" path what) ms;
    Printf.printf "bench-diff: %d difference(s) against %s\n" (List.length ms)
      baseline_path;
    exit 1
