module W = Repro_workloads
module T = Repro_core.Technique
module A = Repro_core.Alloc_family
module X = Repro_exec

type column = { technique : T.t; alloc : A.t; chunk_objs : int option }

let column ?alloc ?chunk_objs technique =
  { technique; alloc = Option.value alloc ~default:(A.default_for technique);
    chunk_objs }

let column_name c = A.column_name c.technique c.alloc

let equal_column a b =
  T.equal a.technique b.technique && A.equal a.alloc b.alloc
  && a.chunk_objs = b.chunk_objs

let paper_columns = List.map (fun t -> column t) T.all_paper

(* The paper's five columns plus the DynaSOAr SoA family over CUDA
   dispatch — appended last so default-family lookups by technique keep
   finding the paper run first. *)
let default_columns = paper_columns @ [ column ~alloc:A.Dyna_soa T.Cuda ]

type t = {
  outcomes : X.Executor.outcome list;
  cells : W.Harness.run array;  (* workload-major: [cells.(w * n_columns + c)] *)
  workload_names : string list;
  columns : column list;
}

let default_scale = W.Workload.default_scale

let exec ?(scale = default_scale) ?iterations ?seed ?(j = 1) ?(cache = false)
    ?cache_dir ?(progress = fun _ -> ()) ?(workloads = W.Registry.all)
    ?(columns = default_columns) ?pages () =
  let params c =
    let p = W.Workload.default_params c.technique in
    {
      p with
      W.Workload.scale;
      iterations;
      seed = Option.value seed ~default:p.W.Workload.seed;
      chunk_objs = c.chunk_objs;
      pages;
      (* Default families stay [None] so the job key (and cache entry) is
         the same whether the run came from a technique-only or a
         column-aware surface. *)
      alloc = (if A.is_default c.technique c.alloc then None else Some c.alloc);
    }
  in
  let jobs =
    List.concat_map
      (fun w -> List.map (fun c -> X.Job.make w (params c)) columns)
      workloads
  in
  let outcomes =
    X.Executor.run ~jobs:j ~cache ?cache_dir
      ~progress:(fun job -> progress (X.Job.label job))
      jobs
  in
  (match X.Executor.errors outcomes with
   | [] -> ()
   | errs ->
     failwith
       (Printf.sprintf "Sweep: %d job(s) failed: %s" (List.length errs)
          (String.concat "; "
             (List.map
                (fun (job, msg) -> X.Job.label job ^ ": " ^ msg)
                errs))));
  let cells = Array.of_list (List.map X.Executor.ok_exn outcomes) in
  (* The paper's functional validation, per workload across columns. *)
  let n = List.length columns in
  List.iteri
    (fun wi _ -> W.Harness.validate_equal (Array.to_list (Array.sub cells (wi * n) n)))
    workloads;
  {
    outcomes;
    cells;
    workload_names = List.map W.Registry.qualified_name workloads;
    columns;
  }

let outcomes t = t.outcomes

let runs t = Array.to_list t.cells

let workload_names t = t.workload_names

let columns t = t.columns

let techniques t =
  List.fold_left
    (fun acc c ->
      if List.exists (T.equal c.technique) acc then acc else acc @ [ c.technique ])
    [] t.columns

let index_of p l =
  let rec go i = function
    | [] -> raise Not_found
    | x :: rest -> if p x then i else go (i + 1) rest
  in
  go 0 l

let get_column t ~workload ~column =
  let wi = index_of (String.equal workload) t.workload_names in
  let ci = index_of (equal_column column) t.columns in
  t.cells.((wi * List.length t.columns) + ci)

let get t ~workload ~technique = get_column t ~workload ~column:(column technique)
