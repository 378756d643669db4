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

let measure ?runner ~clock ~cache ~dir job =
  let probe, hit =
    if not cache then ([], None)
    else begin
      let t0 = clock () in
      let hit = Cache.lookup_text ~dir job in
      ([ (Repro_obs.Svc_metrics.Cache_probe, t0, clock () -. t0) ], hit)
    end
  in
  match hit with
  | Some text -> ({ job; result = Ok text; wall_s = 0.; cached = true }, probe)
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
  let all = Array.of_list job_list in
  (* Serve hits up front (cheap, serial), then pool only the misses. *)
  let hits =
    Array.map
      (fun job -> if cache then Cache.lookup ~dir job else None)
      all
  in
  let miss_idx =
    Array.to_list all
    |> List.mapi (fun i _ -> i)
    |> List.filter (fun i -> hits.(i) = None)
    |> Array.of_list
  in
  let measure i =
    let job = all.(i) in
    progress job;
    timed job
  in
  let measured = Repro_util.Pool.map ~jobs ~f:measure miss_idx in
  let fresh = Hashtbl.create (Array.length miss_idx) in
  Array.iteri
    (fun k i ->
      let result, wall_s =
        match measured.(k) with
        | Ok rw -> rw
        (* [measure] already catches; this arm only fires if the pool
           machinery itself failed. *)
        | Error e -> (Error (Printexc.to_string e), 0.)
      in
      Hashtbl.replace fresh i (result, wall_s))
    miss_idx;
  (* Write-back serially from the calling domain. *)
  if cache then
    Hashtbl.iter
      (fun i (result, _) ->
        match result with
        | Ok run -> Cache.store ~dir all.(i) run
        | Error _ -> ())
      fresh;
  Array.to_list
    (Array.mapi
       (fun i job ->
         match hits.(i) with
         | Some run -> { job; result = Ok run; wall_s = 0.; cached = true }
         | None ->
           let result, wall_s = Hashtbl.find fresh i in
           { job; result; wall_s; cached = false })
       all)

let ok_exn o =
  match o.result with
  | Ok run -> run
  | Error msg ->
    failwith (Printf.sprintf "job %s failed: %s" (Job.label o.job) msg)

let total_wall_s outcomes =
  List.fold_left (fun acc o -> acc +. o.wall_s) 0. outcomes

let errors outcomes =
  List.filter_map
    (fun o ->
      match o.result with Ok _ -> None | Error m -> Some (o.job, m))
    outcomes
