module R = Repro_core
module Warp_ctx = Repro_gpu.Warp_ctx
module Label = Repro_gpu.Label

type algorithm =
  | Bfs
  | Cc
  | Pagerank

(* Vertex fields *)
let v_value = 0 (* BFS level / CC label / PR rank *)
let v_next = 1 (* PR accumulator / scratch *)
let v_degree = 2
let v_fields = 3

(* Edge fields *)
let e_src = 0
let e_dst = 1
let e_scratch = 2
let e_fields = 3

let infinity_level = 0x3FFF_FFFF (* fits the 32-bit field slots *)
let pr_scale = 65536
let pr_base = 15 * pr_scale / 100

let algo_name = function Bfs -> "BFS" | Cc -> "CC" | Pagerank -> "PR"

let algo_description = function
  | Bfs -> "breadth-first level propagation over virtual edges"
  | Cc -> "connected components by min-label propagation"
  | Pagerank -> "fixed-point PageRank (damping 0.85, 2^16 scale)"

let default_iterations = function Bfs -> 8 | Cc -> 8 | Pagerank -> 6

let build ~virtual_vertices algorithm (p : Workload.params) =
  let rt = Common.create_runtime p in
  let n_vertices = Workload.scaled p 10_000 in
  let n_edges = Workload.scaled p 60_000 in
  let graph = Graph.generate ~seed:p.Workload.seed ~n_vertices ~n_edges () in
  let iteration = ref 0 in
  (* Pointer tables are set up after allocation; the implementation
     closures capture these refs. *)
  let vptrs = ref None in
  let vertex_ptrs () = Option.get !vptrs in

  (* --- virtual function bodies -------------------------------------- *)
  let load_vertex_field env sub ~idxs ~field =
    let table = vertex_ptrs () in
    let ptrs = R.Garray.load table sub ~idxs in
    (ptrs, R.Env.field_load (R.Env.restrict env sub) ~objs:ptrs ~field)
  in

  (* BFS: relax (src level == iter) edges, setting unreached dst levels. *)
  let bfs_relax (env : R.Env.t) objs =
    let ctx = env.R.Env.ctx in
    let iter = !iteration in
    let srcs = R.Env.field_load env ~objs ~field:e_src in
    let dsts = R.Env.field_load env ~objs ~field:e_dst in
    let _, l_src = load_vertex_field env ctx ~idxs:srcs ~field:v_value in
    R.Env.compute env;
    let pred = Array.map (fun l -> l = iter) l_src in
    Warp_ctx.if_ ctx ~label:Label.Body ~pred
      (fun sub idxs ->
        let dsts' = Warp_ctx.gather idxs dsts in
        let dst_ptrs, l_dst = load_vertex_field env sub ~idxs:dsts' ~field:v_value in
        let pred2 = Array.map (fun l -> l > iter + 1) l_dst in
        Warp_ctx.if_ sub ~label:Label.Body ~pred:pred2
          (fun sub2 idxs2 ->
            let ptrs2 = Warp_ctx.gather idxs2 dst_ptrs in
            R.Env.field_store (R.Env.restrict env sub2) ~objs:ptrs2 ~field:v_value
              (Array.make (Array.length idxs2) (iter + 1)))
          None)
      None
  in

  (* CC: dst label becomes min(dst, src); symmetric for undirectedness. *)
  let cc_relax (env : R.Env.t) objs =
    let ctx = env.R.Env.ctx in
    let srcs = R.Env.field_load env ~objs ~field:e_src in
    let dsts = R.Env.field_load env ~objs ~field:e_dst in
    let src_ptrs, l_src = load_vertex_field env ctx ~idxs:srcs ~field:v_value in
    let dst_ptrs, l_dst = load_vertex_field env ctx ~idxs:dsts ~field:v_value in
    R.Env.compute env ~n:2;
    let m = Array.init (Array.length l_src) (fun i -> min l_src.(i) l_dst.(i)) in
    R.Env.field_store env ~objs:dst_ptrs ~field:v_value m;
    R.Env.field_store env ~objs:src_ptrs ~field:v_value m
  in

  (* PR: push rank/degree along the edge into the destination's
     accumulator (lockstep last-writer-wins within a warp, identically
     under every technique). *)
  let pr_transfer (env : R.Env.t) objs =
    let ctx = env.R.Env.ctx in
    let srcs = R.Env.field_load env ~objs ~field:e_src in
    let dsts = R.Env.field_load env ~objs ~field:e_dst in
    let _, rank = load_vertex_field env ctx ~idxs:srcs ~field:v_value in
    let _, degree = load_vertex_field env ctx ~idxs:srcs ~field:v_degree in
    R.Env.compute env;
    let contrib =
      Array.init (Array.length rank) (fun i -> rank.(i) / max 1 degree.(i))
    in
    let dst_ptrs, next = load_vertex_field env ctx ~idxs:dsts ~field:v_next in
    R.Env.compute env;
    let next = Array.init (Array.length next) (fun i -> next.(i) + contrib.(i)) in
    R.Env.field_store env ~objs:dst_ptrs ~field:v_next next;
    (* Mark the edge processed (keeps a per-edge footprint like the
       real framework's edge data). *)
    R.Env.field_store env ~objs ~field:e_scratch contrib
  in

  (* Vertex update bodies (virtual in vEN, inlined in vE kernels). *)
  let pr_vertex_update (env : R.Env.t) objs =
    let next = R.Env.field_load env ~objs ~field:v_next in
    R.Env.compute env ~n:2;
    let rank = Array.map (fun nx -> pr_base + (85 * nx / 100)) next in
    R.Env.field_store env ~objs ~field:v_value rank;
    R.Env.field_store env ~objs ~field:v_next
      (Array.make (Array.length next) 0)
  in
  let counting_vertex_update (env : R.Env.t) objs =
    (* BFS/CC bookkeeping pass: fold the value into the scratch field,
       the per-iteration "gather" phase of the vertex-centric model. *)
    let value = R.Env.field_load env ~objs ~field:v_value in
    let acc = R.Env.field_load env ~objs ~field:v_next in
    R.Env.compute env;
    let acc =
      Array.init (Array.length acc) (fun i ->
          acc.(i) + (if value.(i) >= infinity_level then 0 else 1))
    in
    R.Env.field_store env ~objs ~field:v_next acc
  in

  let edge_body =
    match algorithm with Bfs -> bfs_relax | Cc -> cc_relax | Pagerank -> pr_transfer
  in
  let vertex_body =
    match algorithm with Bfs | Cc -> counting_vertex_update | Pagerank -> pr_vertex_update
  in

  (* --- types --------------------------------------------------------- *)
  let edge_impl = R.Runtime.register_impl rt ~name:"edge.update" edge_body in
  let vertex_impl = R.Runtime.register_impl rt ~name:"vertex.update" vertex_body in
  let chi_edge =
    R.Runtime.define_type rt ~name:"ChiEdge" ~field_words:e_fields
      ~slots:[| edge_impl |] ()
  in
  let edge_t =
    R.Runtime.define_type rt ~name:"Edge" ~field_words:e_fields ~parent:chi_edge
      ~slots:[| edge_impl |] ()
  in
  let chi_vertex =
    R.Runtime.define_type rt ~name:"ChiVertex" ~field_words:v_fields
      ~slots:[| vertex_impl |] ()
  in
  let vertex_t =
    R.Runtime.define_type rt ~name:"Vertex" ~field_words:v_fields ~parent:chi_vertex
      ~slots:[| vertex_impl |] ()
  in

  (* --- allocation (loader order: vertex, then its out-edges) --------- *)
  (* A walk of the graph's CSR arrays in order. Each object's fields are
     set right after it is placed, while its page is the heap's most
     recent one. *)
  let om = R.Runtime.object_model rt in
  let heap = R.Runtime.heap rt in
  let store ptr field v = R.Object_model.field_store_host om heap ~ptr ~field v in
  let init_value =
    match algorithm with
    | Bfs -> fun v -> if v = 0 then 0 else infinity_level
    | Cc -> fun v -> v
    | Pagerank -> fun _ -> pr_scale
  in
  let { Graph.out_start; out_edges; out_dst; _ } = graph in
  let vertex_ptr = Array.make n_vertices 0 in
  let edge_ptr = Array.make n_edges 0 in
  for v = 0 to n_vertices - 1 do
    let ptr = R.Runtime.new_obj rt vertex_t in
    vertex_ptr.(v) <- ptr;
    store ptr v_value (init_value v);
    store ptr v_next 0;
    store ptr v_degree (Graph.out_degree graph v);
    for k = out_start.(v) to out_start.(v + 1) - 1 do
      let e = out_edges.(k) in
      let ptr = R.Runtime.new_obj rt edge_t in
      edge_ptr.(e) <- ptr;
      store ptr e_src v;
      store ptr e_dst out_dst.(k);
      store ptr e_scratch 0
    done
  done;
  let vptr_table = Common.garray_of_ptrs rt ~name:"vptrs" vertex_ptr in
  vptrs := Some vptr_table;
  let eptr_table = Common.garray_of_ptrs rt ~name:"eptrs" edge_ptr in

  (* --- per-iteration kernels ----------------------------------------- *)
  let run_vertex_kernel () =
    if virtual_vertices then
      Common.vcall_all rt ~ptrs:vptr_table ~n:n_vertices ~slot:0
    else
      Common.launch rt ~n:n_vertices (fun env ->
          let tids = Common.lane_tids env in
          let objs = R.Garray.load vptr_table env.R.Env.ctx ~idxs:tids in
          vertex_body env objs)
  in
  let run_iteration i =
    iteration := i;
    Common.vcall_all rt ~ptrs:eptr_table ~n:n_edges ~slot:0;
    match algorithm with
    | Pagerank -> run_vertex_kernel ()
    | Bfs | Cc -> if virtual_vertices then run_vertex_kernel ()
  in
  let result () =
    Array.fold_left
      (fun acc ptr ->
        let v = R.Object_model.field_load_host om heap ~ptr ~field:v_value in
        (acc + min v (1 lsl 20)) land max_int)
      0 vertex_ptr
  in
  {
    Workload.rt;
    iterations = Option.value p.Workload.iterations ~default:(default_iterations algorithm);
    run_iteration;
    result;
  }

let workload ~virtual_vertices algorithm =
  let suite = if virtual_vertices then "GraphChi-vEN" else "GraphChi-vE" in
  {
    Workload.name = algo_name algorithm;
    suite;
    description =
      Printf.sprintf "%s (%s)" (algo_description algorithm)
        (if virtual_vertices then "virtual edges and vertices" else "virtual edges");
    paper_objects = 2_254_419;
    paper_types = 4;
    build = build ~virtual_vertices algorithm;
  }

let all =
  [
    workload ~virtual_vertices:false Bfs;
    workload ~virtual_vertices:false Cc;
    workload ~virtual_vertices:false Pagerank;
    workload ~virtual_vertices:true Bfs;
    workload ~virtual_vertices:true Cc;
    workload ~virtual_vertices:true Pagerank;
  ]
