module R = Repro_core
module Warp_ctx = Repro_gpu.Warp_ctx

let create_runtime (p : Workload.params) =
  R.Runtime.create ?config:p.Workload.config ?chunk_objs:p.Workload.chunk_objs
    ?san:p.Workload.san ?telemetry:p.Workload.telemetry
    ?alloc:p.Workload.alloc ?pages:p.Workload.pages
    ~technique:p.Workload.technique ()

let garray rt ~name ~len =
  R.Garray.alloc ~space:(R.Runtime.address_space rt) ~name ~len

let fill rt arr f =
  let heap = R.Runtime.heap rt in
  for i = 0 to R.Garray.len arr - 1 do
    R.Garray.set arr heap i (f i)
  done

let garray_of_ptrs rt ~name ptrs =
  let arr = garray rt ~name ~len:(Array.length ptrs) in
  fill rt arr (fun i -> ptrs.(i));
  arr

let to_array rt arr =
  let heap = R.Runtime.heap rt in
  Array.init (R.Garray.len arr) (fun i -> R.Garray.get arr heap i)

let launch rt ~n kernel = R.Runtime.launch rt ~n_threads:n kernel

let lane_tids (env : R.Env.t) = Warp_ctx.tids env.R.Env.ctx

let vcall_all rt ~ptrs ~n ~slot =
  launch rt ~n (fun env ->
      let tids = lane_tids env in
      let objs = R.Garray.load ptrs env.R.Env.ctx ~idxs:tids in
      env.R.Env.vcall env ~objs ~slot)
