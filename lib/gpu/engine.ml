type t = {
  intra : bool;
  intra_jobs : int;
}

let default = { intra = false; intra_jobs = 0 }

let resolve_jobs t =
  if t.intra_jobs > 0 then t.intra_jobs
  else Repro_util.Pool.available_workers ()
