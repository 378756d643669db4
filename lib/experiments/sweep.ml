module W = Repro_workloads
module T = Repro_core.Technique
module A = Repro_core.Alloc_family
module X = Repro_exec

type column = { technique : T.t; alloc : A.t }

let column ?alloc technique =
  { technique; alloc = Option.value alloc ~default:(A.default_for technique) }

let column_name c = A.column_name c.technique c.alloc

(* The paper's five columns plus the DynaSOAr SoA family over CUDA
   dispatch — appended last so default-family lookups by technique keep
   finding the paper run first. *)
let default_columns =
  List.map (fun t -> column t) T.all_paper @ [ column ~alloc:A.Dyna_soa T.Cuda ]

type t = {
  outcomes : X.Executor.outcome list;
  runs : W.Harness.run list;
  workload_names : string list;
  columns : column list;
}

let default_scale = W.Workload.default_scale

let exec ?(scale = default_scale) ?iterations ?(j = 1) ?(cache = false)
    ?cache_dir ?(progress = fun _ -> ()) ?(workloads = W.Registry.all)
    ?(columns = default_columns) ?pages () =
  let params c =
    {
      (W.Workload.default_params c.technique) with
      W.Workload.scale;
      iterations;
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
  let runs = List.map X.Executor.ok_exn outcomes in
  (* The paper's functional validation, per workload across columns.
     Jobs are workload-major, so each workload's runs are contiguous. *)
  let n_columns = List.length columns in
  let rec validate = function
    | [] -> ()
    | rest ->
      let group = List.filteri (fun i _ -> i < n_columns) rest in
      W.Harness.validate_equal group;
      validate (List.filteri (fun i _ -> i >= n_columns) rest)
  in
  validate runs;
  {
    outcomes;
    runs;
    workload_names = List.map W.Registry.qualified_name workloads;
    columns;
  }

let outcomes t = t.outcomes

let runs t = t.runs

let workload_names t = t.workload_names

let columns t = t.columns

let techniques t =
  List.fold_left
    (fun acc c ->
      if List.exists (T.equal c.technique) acc then acc else acc @ [ c.technique ])
    [] t.columns

let get_column t ~workload ~column =
  match
    List.find_opt
      (fun (r : W.Harness.run) ->
        r.W.Harness.workload = workload
        && T.equal r.W.Harness.technique column.technique
        && A.equal r.W.Harness.alloc column.alloc)
      t.runs
  with
  | Some r -> r
  | None -> raise Not_found

let get t ~workload ~technique =
  get_column t ~workload
    ~column:{ technique; alloc = A.default_for technique }
