let kind_stall = 0
let kind_l1 = 1
let kind_l2 = 2
let kind_dram = 3
let kind_tlb = 4

type config = {
  window : int option;
  trace : bool;
  trace_capacity : int;
}

let default_window = 1024

let default_capacity = 65536

let off = { window = None; trace = false; trace_capacity = default_capacity }

let config_enabled c = c.window <> None || c.trace

module Sampler = struct
  type t = {
    window : int;
    fwindow : float;
    mutable all_rows : Stats.t array; (* grown by doubling, recycled *)
    mutable n : int;                  (* rows in use this launch *)
    boundary : float array;           (* one-slot mailbox: current window end *)
    mutable cur : Stats.t;
  }

  let create ~window =
    if window <= 0 then invalid_arg "Telemetry.Sampler: window must be positive";
    let all_rows = Array.init 16 (fun _ -> Stats.create ()) in
    {
      window;
      fwindow = float_of_int window;
      all_rows;
      n = 1;
      boundary = Array.make 1 (float_of_int window);
      cur = all_rows.(0);
    }

  let window t = t.window

  let boundary_cell t = t.boundary

  let current t = t.cur

  let rows t = t.n

  let begin_launch t =
    t.n <- 1;
    t.boundary.(0) <- t.fwindow;
    Stats.reset t.all_rows.(0);
    t.cur <- t.all_rows.(0)

  let grow t =
    let cap = Array.length t.all_rows in
    if t.n >= cap then begin
      let bigger = Array.init (2 * cap) (fun i ->
          if i < cap then t.all_rows.(i) else Stats.create ())
      in
      t.all_rows <- bigger
    end

  let advance t ~now =
    while now >= t.boundary.(0) do
      grow t;
      let row = t.all_rows.(t.n) in
      Stats.reset row;
      t.cur <- row;
      t.n <- t.n + 1;
      t.boundary.(0) <- t.boundary.(0) +. t.fwindow
    done

  (* Every sealed window lasted exactly [fwindow] cycles; the open one
     gets the remainder. [k *. fwindow] is an exact integer double for
     any realistic k, and [cycles -. k *. fwindow] is exact because the
     true difference is representable (it spans at most the mantissa
     width between the window magnitude and ulp(cycles)), so the
     in-order fold of the rows' cycles reproduces [cycles] bit-for-bit. *)
  let finish_launch t ~cycles =
    for i = 0 to t.n - 2 do
      Stats.add_cycles t.all_rows.(i) t.fwindow
    done;
    let consumed = float_of_int (t.n - 1) *. t.fwindow in
    Stats.add_cycles t.all_rows.(t.n - 1) (cycles -. consumed)

  let take t =
    Array.init t.n (fun i ->
        let row = t.all_rows.(i) in
        t.all_rows.(i) <- Stats.create ();
        row)
end

type t = {
  config : config;
  sampler : Sampler.t option;
  ring : Repro_util.Event_ring.t option;
}

let create config =
  {
    config;
    sampler = Option.map (fun window -> Sampler.create ~window) config.window;
    ring =
      (if config.trace then
         Some (Repro_util.Event_ring.create ~capacity:config.trace_capacity)
       else None);
  }

type kernel_span = {
  index : int;
  start : float;
  dur : float;
}

type dump = {
  n_sms : int;
  window : int;
  events : Repro_util.Event_ring.event array;
  kernels : kernel_span list;
  dropped : int;
}
