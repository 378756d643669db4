module W = Repro_workloads

type 'run outcome_of = {
  job : Job.t;
  result : ('run, string) result;
  wall_s : float;
  cached : bool;
}

type outcome = W.Harness.run outcome_of

let default_jobs () = Repro_util.Pool.available_workers ()

let timed ?(runner = fun job -> Ok (Job.run job)) job =
  let t0 = Unix.gettimeofday () in
  let result = try runner job with e -> Error (Printexc.to_string e) in
  (result, Unix.gettimeofday () -. t0)

let hit job run = { job; result = Ok run; wall_s = 0.; cached = true }

let measure ?runner ~clock ~cache ~dir job =
  let probe, stored =
    if not cache then ([], None)
    else begin
      let t0 = clock () in
      let stored = Cache.lookup_text ~dir job in
      ([ (Repro_obs.Svc_metrics.Cache_probe, t0, clock () -. t0) ], stored)
    end
  in
  match stored with
  | Some text -> (hit job text, probe)
  | None ->
    let t0 = clock () in
    let result, wall_s = timed ?runner job in
    let result = Result.map Run_wire.encode result in
    (if cache then
       match result with
       | Ok text -> Cache.store_text ~dir job text
       | Error _ -> ());
    ( { job; result; wall_s; cached = false },
      probe @ [ (Repro_obs.Svc_metrics.Run, t0, wall_s) ] )

let run ?(jobs = 1) ?(cache = false) ?cache_dir ?(progress = fun _ -> ())
    job_list =
  let dir =
    match cache_dir with Some d -> d | None -> Cache.default_dir ()
  in
  (* One step per job, on whichever domain the pool hands it to. *)
  let step job =
    match if cache then Cache.lookup ~dir job else None with
    | Some run -> hit job run
    | None ->
      progress job;
      let result, wall_s = timed job in
      (match result with
       | Ok run when cache -> Cache.store ~dir job run
       | Ok _ | Error _ -> ());
      { job; result; wall_s; cached = false }
  in
  Repro_util.Pool.map ~jobs ~f:step (Array.of_list job_list)
  |> Array.to_list
  |> List.map2
       (fun job -> function
         | Ok outcome -> outcome
         (* [step] catches the job's exceptions; this arm only fires if
            the pool machinery itself failed. *)
         | Error e ->
           { job; result = Error (Printexc.to_string e); wall_s = 0.;
             cached = false })
       job_list

let ok_exn o =
  match o.result with
  | Ok run -> run
  | Error msg ->
    failwith (Printf.sprintf "job %s failed: %s" (Job.label o.job) msg)

let errors outcomes =
  List.filter_map
    (fun o ->
      match o.result with Ok _ -> None | Error m -> Some (o.job, m))
    outcomes
