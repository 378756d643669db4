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

type memo = (string, X.Executor.outcome) Hashtbl.t

let memo () : memo = Hashtbl.create 64

(* Run only the jobs the memo has not seen, and remember the ones that
   succeed; a hit is the earlier outcome, under this sweep's job. *)
let run_memo memo run jobs =
  let key = X.Job.key in
  let fresh = Hashtbl.create 16 in
  List.filter (fun job -> not (Hashtbl.mem memo (key job))) jobs
  |> run
  |> List.iter (fun (o : X.Executor.outcome) -> Hashtbl.replace fresh (key o.job) o);
  List.map
    (fun job ->
      match Hashtbl.find_opt fresh (key job) with
      | Some o ->
        if Result.is_ok o.X.Executor.result then Hashtbl.replace memo (key job) o;
        o
      | None -> { (Hashtbl.find memo (key job)) with X.Executor.job })
    jobs

let jobs ?(scale = default_scale) ?iterations ?(seed = W.Workload.default_seed)
    ?(workloads = W.Registry.all) ?(columns = default_columns) ?pages () =
  List.concat_map
    (fun w ->
      List.map
        (fun c ->
          X.Job.make w
            (X.Job.params ~technique:c.technique ~alloc:c.alloc
               ?chunk_objs:c.chunk_objs ?pages ?iterations ~scale ~seed ()))
        columns)
    workloads

let exec ?scale ?iterations ?seed ?(j = 1) ?(cache = false) ?cache_dir
    ?(progress = fun _ -> ()) ?memo ?(workloads = W.Registry.all)
    ?(columns = default_columns) ?pages () =
  let jobs = jobs ?scale ?iterations ?seed ~workloads ~columns ?pages () in
  let run =
    X.Executor.run ~jobs:j ~cache ?cache_dir
      ~progress:(fun job -> progress (X.Job.label job))
  in
  let outcomes =
    match memo with Some m -> run_memo m run jobs | None -> run jobs
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
