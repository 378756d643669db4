type params = {
  technique : Repro_core.Technique.t;
  alloc : Repro_core.Alloc_family.t option;
  scale : float;
  config : Repro_gpu.Config.t option;
  chunk_objs : int option;
  iterations : int option;
  seed : int;
  san : Repro_san.Checker.t option;
  telemetry : Repro_gpu.Telemetry.config option;
  pages : Repro_vm.Policy.t option;
}

(* The repo-wide default sweep scale. One constant shared by every
   job-construction surface — `repro sweep`, `repro submit`/the wire
   decoder's absent-field default, and the CLI's -s help — so a bare
   sweep and a bare submit are the same run. 0.25 of the reduced config
   keeps the default CI-cheap; pass --scale 1.0 for paper-scale runs. *)
let default_scale = 0.25

let default_seed = 42

let default_params technique =
  { technique; alloc = None; scale = 1.0; config = None; chunk_objs = None;
    iterations = None; seed = default_seed; san = None; telemetry = None;
    pages = None }

type instance = {
  rt : Repro_core.Runtime.t;
  iterations : int;
  run_iteration : int -> unit;
  result : unit -> int;
}

type t = {
  name : string;
  suite : string;
  description : string;
  paper_objects : int;
  paper_types : int;
  build : params -> instance;
}

let scaled params n = max 1 (int_of_float (Float.round (float_of_int n *. params.scale)))
