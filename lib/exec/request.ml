module W = Repro_workloads
module T = Repro_core.Technique
module J = Repro_obs.Json
module D = Repro_obs.Json.Decode

let schema_version = 2

(* [T.name] is a display name and collapses the prototype-on-CUDA
   configuration; the wire uses the CLI's parseable short names and
   spells that one variant explicitly so every [T.t] round-trips. *)
let technique_to_string = function
  | T.Cuda -> "cuda"
  | T.Concord -> "con"
  | T.Shared_oa -> "shard"
  | T.Coal -> "coal"
  | T.Type_pointer { mode = T.Prototype; on_cuda_alloc = false } -> "tp"
  | T.Type_pointer { mode = T.Hw_mmu; on_cuda_alloc = false } -> "tp-hw"
  | T.Type_pointer { mode = T.Hw_mmu; on_cuda_alloc = true } -> "tp/cuda"
  | T.Type_pointer { mode = T.Prototype; on_cuda_alloc = true } ->
    "tp-proto/cuda"

let technique_names = [ "cuda"; "con"; "shard"; "coal"; "tp"; "tp-hw"; "tp/cuda" ]

let technique_of_string s =
  match String.lowercase_ascii s with
  | "tp-proto/cuda" ->
    Ok (T.Type_pointer { mode = T.Prototype; on_cuda_alloc = true })
  | _ -> (
    match T.of_string s with
    | Ok t -> Ok t
    | Error _ ->
      Error
        (Printf.sprintf "unknown technique %S; valid techniques: %s" s
           (String.concat ", " technique_names)))

module Spec = struct
  type t = {
    workload : string;
    technique : string;
    alloc : string option;
    scale : float;
    seed : int;
    iterations : int option;
    chunk_objs : int option;
    pages : string option;
  }

  (* One constant for every surface: a bare submit and a bare sweep are
     now the same job (schema v2; v1 defaulted an absent scale to 1.0
     while `repro sweep` ran 0.25). *)
  let default_scale = W.Workload.default_scale

  let make ?alloc ?(scale = default_scale) ?(seed = W.Workload.default_seed)
      ?iterations ?chunk_objs ?pages ~workload ~technique () =
    (* "none" (the CLI's explicit default) and omission are the same run;
       canonicalize so the job key and cache agree — [Job.params] plays
       the same trick on [alloc]. *)
    let pages = match pages with Some "none" -> None | p -> p in
    { workload; technique; alloc; scale; seed; iterations; chunk_objs; pages }

  let of_job (job : Job.t) =
    let p = job.Job.params in
    {
      workload = Job.workload_name job;
      technique = technique_to_string job.Job.technique;
      alloc = Option.map Repro_core.Alloc_family.name p.W.Workload.alloc;
      scale = p.W.Workload.scale;
      seed = p.W.Workload.seed;
      iterations = p.W.Workload.iterations;
      chunk_objs = p.W.Workload.chunk_objs;
      pages = Option.map Repro_vm.Policy.name p.W.Workload.pages;
    }

  (* The numbers every job needs in range; a scale of -1, 0 or 1e400
     would otherwise run (under a fresh cache key each) as whatever the
     workloads' clamps make of it, and iterations < 1 measures nothing. *)
  let scale_error scale =
    if Float.is_finite scale && scale > 0. then None
    else Some (Printf.sprintf "scale must be finite and > 0, got %g" scale)

  let count_error name n =
    if n < 1 then Some (Printf.sprintf "%s must be >= 1, got %d" name n) else None

  let check_ranges t =
    List.find_map Fun.id
      [
        scale_error t.scale;
        Option.bind t.iterations (count_error "iterations");
        Option.bind t.chunk_objs (count_error "chunk_objs");
      ]

  let to_params t =
    let ( let* ) = Result.bind in
    let* () =
      match check_ranges t with Some msg -> Error msg | None -> Ok ()
    in
    let* technique = technique_of_string t.technique in
    let* alloc =
      match t.alloc with
      | None -> Ok None
      | Some s -> Result.map Option.some (Repro_core.Alloc_family.of_string s)
    in
    let* pages =
      match t.pages with None -> Ok None | Some s -> Repro_vm.Policy.parse s
    in
    Ok
      (Job.params ~technique ?alloc ?pages ?iterations:t.iterations
         ?chunk_objs:t.chunk_objs ~scale:t.scale ~seed:t.seed ())

  let resolve t =
    match W.Registry.find t.workload with
    | None ->
      Error
        (Printf.sprintf "unknown workload %S; valid workloads: %s" t.workload
           (String.concat ", "
              (List.map W.Registry.qualified_name W.Registry.all)))
    | Some w -> (
      match to_params t with
      | Error _ as e -> e
      | Ok params -> Ok (Job.make w params))

  let to_json t =
    J.Obj
      ([
         ("workload", J.String t.workload);
         ("technique", J.String t.technique);
       ]
      @ (match t.alloc with
         | Some a -> [ ("alloc", J.String a) ]
         | None -> [])
      @ [ ("scale", J.Float t.scale); ("seed", J.Int t.seed) ]
      @ (match t.iterations with
         | Some i -> [ ("iterations", J.Int i) ]
         | None -> [])
      @ (match t.chunk_objs with
         | Some c -> [ ("chunk_objs", J.Int c) ]
         | None -> [])
      @
      match t.pages with
      | Some p -> [ ("pages", J.String p) ]
      | None -> [])

  (* Validate at decode time so a bad family reports its JSON path
     ("jobs[0].alloc: expected one of ..."), not a late resolve error. *)
  let alloc_decoder j =
    let s = D.string j in
    match Repro_core.Alloc_family.of_string s with
    | Ok _ -> s
    | Error _ ->
      D.fail
        (Printf.sprintf "expected one of %s, got %S"
           (String.concat ", " Repro_core.Alloc_family.all_names)
           s)

  let pages_decoder j =
    let s = D.string j in
    match Repro_vm.Policy.parse s with
    | Ok _ -> s
    | Error _ ->
      D.fail
        (Printf.sprintf "expected one of %s, got %S"
           (String.concat ", " Repro_vm.Policy.cli_names)
           s)

  (* The removed sliced intra-launch model: answering [intra: true]
     with the shared-L2 result would return another model's numbers, so
     it is an error; [intra: false] decodes as if absent, like the
     removed heap-size hint and [intern]. *)
  let removed_intra_decoder j =
    if D.bool j then D.fail "the sliced intra-launch model was removed"

  let decoder j =
    ignore (D.field_opt "intra" removed_intra_decoder j);
    {
      workload = D.field "workload" D.string j;
      technique = D.field "technique" D.string j;
      alloc = D.field_opt "alloc" alloc_decoder j;
      scale = D.field_default "scale" D.float default_scale j;
      seed = D.field_default "seed" D.int W.Workload.default_seed j;
      iterations = D.field_opt "iterations" D.int j;
      chunk_objs = D.field_opt "chunk_objs" D.int j;
      pages =
        (match D.field_opt "pages" pages_decoder j with
         | Some "none" -> None
         | p -> p);
    }

  let equal a b = a = b

  let label t =
    let extras =
      (match t.alloc with Some a -> [ "alloc=" ^ a ] | None -> [])
      @ match t.pages with Some p -> [ "pages=" ^ p ] | None -> []
    in
    match extras with
    | [] -> Printf.sprintf "%s [%s]" t.workload t.technique
    | es ->
      Printf.sprintf "%s [%s %s]" t.workload t.technique (String.concat " " es)
end

type t =
  | Submit of { id : string; cache : bool; specs : Spec.t list }
  | Query of Spec.t
  | Invalidate of Spec.t option
  | Stats
  | Health
  | Trace_dump
  | Ping
  | Shutdown

let envelope typ fields = J.Obj (("v", J.Int schema_version) :: ("type", J.String typ) :: fields)

let to_json = function
  | Submit { id; cache; specs } ->
    envelope "submit"
      [
        ("id", J.String id);
        ("cache", J.Bool cache);
        ("jobs", J.List (List.map Spec.to_json specs));
      ]
  | Query spec -> envelope "query" [ ("job", Spec.to_json spec) ]
  | Invalidate (Some spec) -> envelope "invalidate" [ ("job", Spec.to_json spec) ]
  | Invalidate None -> envelope "invalidate" []
  | Stats -> envelope "stats" []
  | Health -> envelope "health" []
  | Trace_dump -> envelope "trace_dump" []
  | Ping -> envelope "ping" []
  | Shutdown -> envelope "shutdown" []

let check_version j =
  let v = D.field "v" D.int j in
  if v <> schema_version then
    D.field "v"
      (fun _ ->
        D.fail
          (Printf.sprintf "unsupported schema version %d (this server speaks %d)"
             v schema_version))
      j

let decoder j =
  check_version j;
  match D.field "type" D.string j with
  | "submit" ->
    Submit
      {
        id = D.field "id" D.string j;
        cache = D.field_default "cache" D.bool true j;
        specs = D.field "jobs" (D.list Spec.decoder) j;
      }
  | "query" -> Query (D.field "job" Spec.decoder j)
  | "invalidate" -> (
    match D.field_opt "job" Spec.decoder j with
    | Some spec -> Invalidate (Some spec)
    | None -> Invalidate None)
  | "stats" -> Stats
  | "health" -> Health
  | "trace_dump" -> Trace_dump
  | "ping" -> Ping
  | "shutdown" -> Shutdown
  | other ->
    D.field "type"
      (fun _ -> D.fail (Printf.sprintf "unknown request type %S" other))
      j

let of_json j = D.run decoder j

let to_line t = J.to_string (to_json t)

let of_line line =
  match J.of_string line with
  | Error msg -> Error ("malformed JSON: " ^ msg)
  | Ok j -> of_json j
