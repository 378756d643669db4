module R = Repro_core
module Warp_ctx = Repro_gpu.Warp_ctx
module Label = Repro_gpu.Label
module Rng = Repro_util.Rng

type rule = {
  rule_name : string;
  survive : int -> bool;
  born : int -> bool;
  n_states : int; (* 2 for GOL; >2 adds decaying "dying" states *)
}

let gol_rule =
  { rule_name = "GOL"; survive = (fun n -> n = 2 || n = 3); born = (fun n -> n = 3); n_states = 2 }

let generation_rule =
  {
    rule_name = "GEN";
    survive = (fun n -> n >= 3 && n <= 5);
    born = (fun n -> n = 2);
    n_states = 4;
  }

(* Cell fields *)
let cell_state = 0
let cell_next = 1
let cell_fields = 2

(* Agent fields *)
let agent_cell = 0
let agent_fields = 1

let build rule ~default_side (p : Workload.params) =
  let rt = Common.create_runtime p in
  (* Three objects per position; scale the area, keep the torus square. *)
  let side =
    max 16 (int_of_float (Float.round (float_of_int default_side *. sqrt p.Workload.scale)))
  in
  let n_pos = side * side in
  let cells = ref None in
  let cell_table () = Option.get !cells in

  let neighbor_offsets = [| (-1, -1); (0, -1); (1, -1); (-1, 0); (1, 0); (-1, 1); (0, 1); (1, 1) |] in

  (* Count live (state = 1) neighbours of each lane's cell index; eight
     pointer-table loads plus eight state loads, the workload's dominant
     memory pattern. *)
  let count_neighbors env sub idxs_cells =
    let n = Array.length idxs_cells in
    let counts = Array.make n 0 in
    (* Lane coordinates are offset-invariant: decompose once, not once
       per neighbour offset. *)
    let xs = Array.make n 0 and ys = Array.make n 0 in
    for i = 0 to n - 1 do
      xs.(i) <- idxs_cells.(i) mod side;
      ys.(i) <- idxs_cells.(i) / side
    done;
    Array.iter
      (fun (dx, dy) ->
        let picks =
          Array.init n (fun i ->
              let x = (xs.(i) + dx + side) mod side
              and y = (ys.(i) + dy + side) mod side in
              (y * side) + x)
        in
        let ptrs = R.Garray.load (cell_table ()) sub ~idxs:picks in
        let states = R.Env.field_load (R.Env.restrict env sub) ~objs:ptrs ~field:cell_state in
        Warp_ctx.compute sub ~label:Label.Body;
        for i = 0 to n - 1 do
          if states.(i) = 1 then counts.(i) <- counts.(i) + 1
        done)
      neighbor_offsets;
    counts
  in

  let alive_update (env : R.Env.t) objs =
    let ctx = env.R.Env.ctx in
    let my_cell = R.Env.field_load env ~objs ~field:agent_cell in
    let cell_ptrs = R.Garray.load (cell_table ()) ctx ~idxs:my_cell in
    let state = R.Env.field_load env ~objs:cell_ptrs ~field:cell_state in
    let pred = Array.map (fun s -> s = 1) state in
    Warp_ctx.if_ ctx ~label:Label.Body ~pred
      (fun sub idxs ->
        let env' = R.Env.restrict env sub in
        let my_cell' = Warp_ctx.gather idxs my_cell in
        let ptrs' = Warp_ctx.gather idxs cell_ptrs in
        let counts = count_neighbors env sub my_cell' in
        R.Env.compute env';
        let next =
          Array.map (fun c -> if rule.survive c then 1 else if rule.n_states > 2 then 2 else 0) counts
        in
        R.Env.field_store env' ~objs:ptrs' ~field:cell_next next)
      None
  in

  let candidate_update (env : R.Env.t) objs =
    let ctx = env.R.Env.ctx in
    let my_cell = R.Env.field_load env ~objs ~field:agent_cell in
    let cell_ptrs = R.Garray.load (cell_table ()) ctx ~idxs:my_cell in
    let state = R.Env.field_load env ~objs:cell_ptrs ~field:cell_state in
    let pred = Array.map (fun s -> s <> 1) state in
    Warp_ctx.if_ ctx ~label:Label.Body ~pred
      (fun sub idxs ->
        let env' = R.Env.restrict env sub in
        let my_cell' = Warp_ctx.gather idxs my_cell in
        let ptrs' = Warp_ctx.gather idxs cell_ptrs in
        let state' = Warp_ctx.gather idxs state in
        let counts = count_neighbors env sub my_cell' in
        R.Env.compute env' ~n:2;
        let next =
          Array.mapi
            (fun i c ->
              if state'.(i) = 0 then (if rule.born c then 1 else 0)
              else
                (* Decaying state: advance until it wraps to dead. *)
                (state'.(i) + 1) mod rule.n_states)
            counts
        in
        R.Env.field_store env' ~objs:ptrs' ~field:cell_next next)
      None
  in

  let cell_commit (env : R.Env.t) objs =
    let next = R.Env.field_load env ~objs ~field:cell_next in
    R.Env.field_store env ~objs ~field:cell_state next
  in

  let i_alive = R.Runtime.register_impl rt ~name:"Alive.update" alive_update in
  let i_candidate = R.Runtime.register_impl rt ~name:"Candidate.update" candidate_update in
  let i_commit = R.Runtime.register_impl rt ~name:"Cell.commit" cell_commit in
  let cell_t =
    R.Runtime.define_type rt ~name:"Cell" ~field_words:cell_fields ~slots:[| i_commit |] ()
  in
  let agent_t =
    R.Runtime.define_type rt ~name:"Agent" ~field_words:agent_fields ~slots:[| i_alive |] ()
  in
  let alive_t =
    R.Runtime.define_type rt ~name:"Alive" ~field_words:agent_fields ~parent:agent_t
      ~slots:[| i_alive |] ()
  in
  let candidate_t =
    R.Runtime.define_type rt ~name:"Candidate" ~field_words:agent_fields ~parent:agent_t
      ~slots:[| i_candidate |] ()
  in

  (* Allocation: per position, cell then its two agents — the natural
     interleaving a loader produces. Each object's fields are set right
     after it is placed, while its page is the heap's most recent one. *)
  let om = R.Runtime.object_model rt in
  let heap = R.Runtime.heap rt in
  let store ptr field v = R.Object_model.field_store_host om heap ~ptr ~field v in
  let cell_ptr = Array.make n_pos 0 in
  let alive_ptr = Array.make n_pos 0 in
  let candidate_ptr = Array.make n_pos 0 in
  let rng = Rng.create ~seed:p.Workload.seed in
  for i = 0 to n_pos - 1 do
    let cell = R.Runtime.new_obj rt cell_t in
    cell_ptr.(i) <- cell;
    let state = if Rng.int rng 100 < 35 then 1 else 0 in
    store cell cell_state state;
    store cell cell_next state;
    let alive = R.Runtime.new_obj rt alive_t in
    alive_ptr.(i) <- alive;
    store alive agent_cell i;
    let candidate = R.Runtime.new_obj rt candidate_t in
    candidate_ptr.(i) <- candidate;
    store candidate agent_cell i
  done;
  cells := Some (Common.garray_of_ptrs rt ~name:"cells" cell_ptr);
  let alive_table = Common.garray_of_ptrs rt ~name:"alive" alive_ptr in
  let candidate_table = Common.garray_of_ptrs rt ~name:"candidates" candidate_ptr in
  let cells_table = cell_table () in

  let run_iteration _ =
    Common.vcall_all rt ~ptrs:alive_table ~n:n_pos ~slot:0;
    Common.vcall_all rt ~ptrs:candidate_table ~n:n_pos ~slot:0;
    Common.vcall_all rt ~ptrs:cells_table ~n:n_pos ~slot:0
  in
  let result () =
    Array.fold_left
      (fun acc ptr ->
        let s = R.Object_model.field_load_host om heap ~ptr ~field:cell_state in
        (acc * 31) + s)
      0 cell_ptr
    land max_int
  in
  ignore agent_t;
  ignore candidate_t;
  {
    Workload.rt;
    iterations = Option.value p.Workload.iterations ~default:6;
    run_iteration;
    result;
  }

let game_of_life =
  {
    Workload.name = "GOL";
    suite = "Dynasoar";
    description = "Conway's Game of Life with Cell/Agent class hierarchy";
    paper_objects = 5_645_916;
    paper_types = 4;
    build = build gol_rule ~default_side:242;
  }

let generation =
  {
    Workload.name = "GEN";
    suite = "Dynasoar";
    description = "Generation: Game of Life with decaying intermediate states";
    paper_objects = 1_048_576;
    paper_types = 4;
    build = build generation_rule ~default_side:104;
  }
