module R = Repro_core
module Warp_ctx = Repro_gpu.Warp_ctx
module Label = Repro_gpu.Label

(* Cell / ProducerCell fields *)
let c_occupant = 0 (* car id + 1, or 0 when free *)
let c_gate = 1 (* 1 = go, 0 = red light *)
let c_index = 2
let c_spawn = 3 (* producer spawn counter *)
let cell_fields = 4

(* Car fields *)
let car_cell = 0
let car_vel = 1
let car_active = 2
let car_dist = 3
let car_fields = 4

(* TrafficLight fields *)
let l_timer = 0
let l_phase = 1
let l_first_cell = 2
let light_fields = 3

(* SignalGroup fields *)
let g_first_light = 0
let g_offset = 1
let group_fields = 2

(* Monitor fields *)
let m_acc = 0
let m_first_cell = 1
let m_stride = 2
let monitor_fields = 3

let max_velocity = 3
let cells_per_light = 8
let lights_per_group = 8

let build (p : Workload.params) =
  let rt = Common.create_runtime p in
  let n_cells = Workload.scaled p 61_440 in
  let n_cells = max 400 (n_cells / 40 * 40) in
  let n_cars = n_cells / 4 in
  let n_producers = n_cells / 20 in
  let n_lights = n_cells / 40 in
  let n_groups = max 1 (n_lights / lights_per_group) in
  let n_monitors = max 1 (n_cells / 160) in
  let cells = ref None and cars = ref None and lights = ref None in
  let table t = Option.get !t in

  (* --- virtual function bodies -------------------------------------- *)
  let cell_noop (_ : R.Env.t) (_ : int array) = () in

  let group_update (env : R.Env.t) objs =
    let first = R.Env.field_load env ~objs ~field:g_first_light in
    let offset = R.Env.field_load env ~objs ~field:g_offset in
    R.Env.compute env;
    let pick = Array.init (Array.length first) (fun i -> first.(i) + (offset.(i) mod lights_per_group)) in
    let light_ptrs = R.Garray.load (table lights) env.R.Env.ctx ~idxs:pick in
    (* Nudge the picked light's timer: group-level coordination. *)
    let timers = R.Env.field_load env ~objs:light_ptrs ~field:l_timer in
    R.Env.compute env;
    R.Env.field_store env ~objs:light_ptrs ~field:l_timer (Array.map (fun t -> t + 1) timers);
    R.Env.field_store env ~objs ~field:g_offset (Array.map (fun o -> o + 1) offset)
  in

  let light_update (env : R.Env.t) objs =
    let timer = R.Env.field_load env ~objs ~field:l_timer in
    let first = R.Env.field_load env ~objs ~field:l_first_cell in
    R.Env.compute env ~n:2;
    let timer = Array.map (fun t -> t + 1) timer in
    let phase = Array.map (fun t -> (t / 4) land 1) timer in
    R.Env.field_store env ~objs ~field:l_timer timer;
    R.Env.field_store env ~objs ~field:l_phase phase;
    (* Rotate the gate over the controlled stretch, one cell per step. *)
    let pick = Array.init (Array.length first) (fun i -> (first.(i) + (timer.(i) mod cells_per_light)) mod n_cells) in
    let cell_ptrs = R.Garray.load (table cells) env.R.Env.ctx ~idxs:pick in
    R.Env.field_store env ~objs:cell_ptrs ~field:c_gate phase
  in

  let producer_update (env : R.Env.t) objs =
    let ctx = env.R.Env.ctx in
    let tids = Warp_ctx.tids ctx in
    let occupant = R.Env.field_load env ~objs ~field:c_occupant in
    let spawn = R.Env.field_load env ~objs ~field:c_spawn in
    let index = R.Env.field_load env ~objs ~field:c_index in
    R.Env.compute env ~n:2;
    R.Env.field_store env ~objs ~field:c_spawn (Array.map (fun s -> s + 1) spawn);
    let pred = Array.map (fun occ -> occ = 0) occupant in
    Warp_ctx.if_ ctx ~label:Label.Body ~pred
      (fun sub idxs ->
        let env' = R.Env.restrict env sub in
        let tids' = Warp_ctx.gather idxs tids in
        let spawn' = Warp_ctx.gather idxs spawn in
        let index' = Warp_ctx.gather idxs index in
        let objs' = Warp_ctx.gather idxs objs in
        (* Each producer owns two pooled cars; try to re-inject one. *)
        let car_ids = Array.init (Array.length tids') (fun i -> (2 * tids'.(i)) + (spawn'.(i) land 1)) in
        let car_ptrs = R.Garray.load (table cars) sub ~idxs:car_ids in
        let active = R.Env.field_load env' ~objs:car_ptrs ~field:car_active in
        let pred2 = Array.map (fun a -> a = 0) active in
        Warp_ctx.if_ sub ~label:Label.Body ~pred:pred2
          (fun sub2 idxs2 ->
            let env'' = R.Env.restrict env' sub2 in
            let car_ptrs2 = Warp_ctx.gather idxs2 car_ptrs in
            let car_ids2 = Warp_ctx.gather idxs2 car_ids in
            let index2 = Warp_ctx.gather idxs2 index' in
            let objs2 = Warp_ctx.gather idxs2 objs' in
            let ones = Array.make (Array.length idxs2) 1 in
            R.Env.field_store env'' ~objs:car_ptrs2 ~field:car_active ones;
            R.Env.field_store env'' ~objs:car_ptrs2 ~field:car_cell index2;
            R.Env.field_store env'' ~objs:car_ptrs2 ~field:car_vel
              (Array.make (Array.length idxs2) 0);
            R.Env.field_store env'' ~objs:objs2 ~field:c_occupant
              (Array.map (fun id -> id + 1) car_ids2))
          None)
      None
  in

  let car_update (env : R.Env.t) objs =
    let ctx = env.R.Env.ctx in
    let tids = Warp_ctx.tids ctx in
    let active = R.Env.field_load env ~objs ~field:car_active in
    let pred = Array.map (fun a -> a = 1) active in
    Warp_ctx.if_ ctx ~label:Label.Body ~pred
      (fun sub idxs ->
        let env' = R.Env.restrict env sub in
        let objs' = Warp_ctx.gather idxs objs in
        let tids' = Warp_ctx.gather idxs tids in
        let pos = R.Env.field_load env' ~objs:objs' ~field:car_cell in
        let vel = R.Env.field_load env' ~objs:objs' ~field:car_vel in
        let n = Array.length idxs in
        (* Nagel-Schreckenberg gap scan: look ahead up to max_velocity
           cells for an occupied cell or a red gate. *)
        let gap = Array.make n max_velocity in
        for k = 1 to max_velocity do
          let ahead = Array.init n (fun i -> (pos.(i) + k) mod n_cells) in
          let cell_ptrs = R.Garray.load (table cells) sub ~idxs:ahead in
          let occ = R.Env.field_load env' ~objs:cell_ptrs ~field:c_occupant in
          let gate = R.Env.field_load env' ~objs:cell_ptrs ~field:c_gate in
          R.Env.compute env' ~n:2;
          for i = 0 to n - 1 do
            if gap.(i) >= k && (occ.(i) <> 0 || gate.(i) = 0) then gap.(i) <- k - 1
          done
        done;
        R.Env.compute env' ~n:3;
        let new_vel = Array.init n (fun i -> min (min (vel.(i) + 1) max_velocity) gap.(i)) in
        let new_pos = Array.init n (fun i -> (pos.(i) + new_vel.(i)) mod n_cells) in
        (* Move: free the old cell, claim the new one. *)
        let old_ptrs = R.Garray.load (table cells) sub ~idxs:pos in
        R.Env.field_store env' ~objs:old_ptrs ~field:c_occupant (Array.make n 0);
        let new_ptrs = R.Garray.load (table cells) sub ~idxs:new_pos in
        R.Env.field_store env' ~objs:new_ptrs ~field:c_occupant
          (Array.map (fun id -> id + 1) tids');
        R.Env.field_store env' ~objs:objs' ~field:car_cell new_pos;
        R.Env.field_store env' ~objs:objs' ~field:car_vel new_vel;
        let dist = R.Env.field_load env' ~objs:objs' ~field:car_dist in
        R.Env.compute env';
        R.Env.field_store env' ~objs:objs' ~field:car_dist
          (Array.init n (fun i -> dist.(i) + new_vel.(i))))
      None
  in

  let monitor_update (env : R.Env.t) objs =
    let acc = R.Env.field_load env ~objs ~field:m_acc in
    let first = R.Env.field_load env ~objs ~field:m_first_cell in
    let stride = R.Env.field_load env ~objs ~field:m_stride in
    let n = Array.length acc in
    let total = Array.copy acc in
    for k = 0 to 7 do
      let pick = Array.init n (fun i -> (first.(i) + (k * stride.(i))) mod n_cells) in
      let cell_ptrs = R.Garray.load (table cells) env.R.Env.ctx ~idxs:pick in
      let occ = R.Env.field_load env ~objs:cell_ptrs ~field:c_occupant in
      R.Env.compute env;
      for i = 0 to n - 1 do
        if occ.(i) <> 0 then total.(i) <- total.(i) + 1
      done
    done;
    R.Env.field_store env ~objs ~field:m_acc total
  in

  (* --- types --------------------------------------------------------- *)
  let i_cell = R.Runtime.register_impl rt ~name:"Cell.update" cell_noop in
  let i_producer = R.Runtime.register_impl rt ~name:"ProducerCell.update" producer_update in
  let i_car = R.Runtime.register_impl rt ~name:"Car.update" car_update in
  let i_light = R.Runtime.register_impl rt ~name:"TrafficLight.update" light_update in
  let i_group = R.Runtime.register_impl rt ~name:"SignalGroup.update" group_update in
  let i_monitor = R.Runtime.register_impl rt ~name:"Monitor.update" monitor_update in
  let cell_t =
    R.Runtime.define_type rt ~name:"Cell" ~field_words:cell_fields ~slots:[| i_cell |] ()
  in
  let producer_t =
    R.Runtime.define_type rt ~name:"ProducerCell" ~field_words:cell_fields
      ~parent:cell_t ~slots:[| i_producer |] ()
  in
  let car_t =
    R.Runtime.define_type rt ~name:"Car" ~field_words:car_fields ~slots:[| i_car |] ()
  in
  let light_t =
    R.Runtime.define_type rt ~name:"TrafficLight" ~field_words:light_fields
      ~slots:[| i_light |] ()
  in
  let group_t =
    R.Runtime.define_type rt ~name:"SignalGroup" ~field_words:group_fields
      ~slots:[| i_group |] ()
  in
  let monitor_t =
    R.Runtime.define_type rt ~name:"Monitor" ~field_words:monitor_fields
      ~slots:[| i_monitor |] ()
  in

  (* --- allocation: street-construction order interleaves the types --- *)
  (* Host-side field initialization (untimed, like the paper's init):
     each object's fields are set right after it is placed, while its
     page is the heap's most recent one. *)
  let om = R.Runtime.object_model rt in
  let heap = R.Runtime.heap rt in
  let store ptr field v = R.Object_model.field_store_host om heap ~ptr ~field v in
  let cell_ptr = Array.make n_cells 0 in
  let car_ptr = Array.make n_cars 0 in
  let light_ptr = Array.make n_lights 0 in
  let group_ptr = Array.make n_groups 0 in
  let monitor_ptr = Array.make n_monitors 0 in
  let cars_done = ref 0 and lights_done = ref 0 in
  let groups_done = ref 0 and monitors_done = ref 0 in
  (* Place the next object of a kind: [init ptr i] sets the fields of
     the kind's [i]-th object. *)
  let place typ ptrs n_done init =
    let i = !n_done in
    let ptr = R.Runtime.new_obj rt typ in
    ptrs.(i) <- ptr;
    init ptr i;
    incr n_done
  in
  let init_car ptr i =
    store ptr car_cell (i * 4 mod n_cells);
    store ptr car_active (i land 1)
  in
  for c = 0 to n_cells - 1 do
    let is_producer = c mod 20 = 10 in
    let cell = R.Runtime.new_obj rt (if is_producer then producer_t else cell_t) in
    cell_ptr.(c) <- cell;
    store cell c_gate 1;
    store cell c_index c;
    if c mod 4 = 1 && !cars_done < n_cars then place car_t car_ptr cars_done init_car;
    if c mod 40 = 20 && !lights_done < n_lights then
      place light_t light_ptr lights_done (fun ptr i ->
          store ptr l_first_cell (i * cells_per_light * 5 mod n_cells));
    if c mod (40 * lights_per_group) = 0 && !groups_done < n_groups then
      place group_t group_ptr groups_done (fun ptr i ->
          store ptr g_first_light (i * lights_per_group mod n_lights));
    if c mod 160 = 80 && !monitors_done < n_monitors then
      place monitor_t monitor_ptr monitors_done (fun ptr i ->
          store ptr m_first_cell (i * 160 mod n_cells);
          store ptr m_stride 7)
  done;
  while !cars_done < n_cars do
    place car_t car_ptr cars_done init_car
  done;
  cells := Some (Common.garray_of_ptrs rt ~name:"cells" cell_ptr);
  cars := Some (Common.garray_of_ptrs rt ~name:"cars" car_ptr);
  lights := Some (Common.garray_of_ptrs rt ~name:"lights" light_ptr);
  let groups_table = Common.garray_of_ptrs rt ~name:"groups" group_ptr in
  let monitors_table = Common.garray_of_ptrs rt ~name:"monitors" monitor_ptr in
  let producer_ptr = Array.of_list (List.filteri (fun c _ -> c mod 20 = 10) (Array.to_list cell_ptr)) in
  let producers_table = Common.garray_of_ptrs rt ~name:"producers" producer_ptr in

  let run_iteration _ =
    Common.vcall_all rt ~ptrs:groups_table ~n:n_groups ~slot:0;
    Common.vcall_all rt ~ptrs:(table lights) ~n:n_lights ~slot:0;
    Common.vcall_all rt ~ptrs:producers_table ~n:n_producers ~slot:0;
    Common.vcall_all rt ~ptrs:(table cars) ~n:n_cars ~slot:0;
    Common.vcall_all rt ~ptrs:monitors_table ~n:n_monitors ~slot:0
  in
  let result () =
    let dist =
      Array.fold_left
        (fun acc ptr -> acc + R.Object_model.field_load_host om heap ~ptr ~field:car_dist)
        0 car_ptr
    in
    let sampled =
      Array.fold_left
        (fun acc ptr -> acc + R.Object_model.field_load_host om heap ~ptr ~field:m_acc)
        0 monitor_ptr
    in
    dist + (1000 * sampled)
  in
  {
    Workload.rt;
    iterations = Option.value p.Workload.iterations ~default:8;
    run_iteration;
    result;
  }

let workload =
  {
    Workload.name = "TRAF";
    suite = "Dynasoar";
    description = "Nagel-Schreckenberg traffic simulation (streets, cars, lights)";
    paper_objects = 1_573_714;
    paper_types = 6;
    build;
  }
