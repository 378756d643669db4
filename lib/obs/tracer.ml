module Telemetry = Repro_gpu.Telemetry
module Label = Repro_gpu.Label
module Stats = Repro_gpu.Stats

let pid = 1

let complete ~name ~tid ~ts ~dur ?(args = []) () =
  Json.Obj
    ([
       ("name", Json.String name);
       ("ph", Json.String "X");
       ("ts", Json.Float ts);
       ("dur", Json.Float dur);
       ("pid", Json.Int pid);
       ("tid", Json.Int tid);
     ]
    @ match args with [] -> [] | args -> [ ("args", Json.Obj args) ])

let counter ~name ~ts ~value =
  Json.Obj
    [
      ("name", Json.String name);
      ("ph", Json.String "C");
      ("ts", Json.Float ts);
      ("pid", Json.Int pid);
      ("tid", Json.Int 0);
      ("args", Json.Obj [ ("value", Json.Float value) ]);
    ]

let metadata ~name ~tid ~args =
  Json.Obj
    [
      ("name", Json.String name);
      ("ph", Json.String "M");
      ("ts", Json.Float 0.);
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("args", Json.Obj args);
    ]

let thread_names n_sms =
  let thread tid label =
    metadata ~name:"thread_name" ~tid ~args:[ ("name", Json.String label) ]
  in
  List.init n_sms (fun i -> thread i (Printf.sprintf "SM %d" i))
  @ [
      thread n_sms "L2";
      thread (n_sms + 1) "DRAM";
      thread (n_sms + 2) "kernels";
      thread (n_sms + 3) "TLB";
    ]

let event_json n_sms (e : Telemetry.event) =
  let open Telemetry in
  if e.kind = Ring.kind_stall then
    complete
      ~name:("stall." ^ Label.slug (Label.of_index e.arg_a))
      ~tid:e.track ~ts:e.ts ~dur:e.dur
      ~args:[ ("warp", Json.Int e.arg_b) ]
      ()
  else if e.kind = Ring.kind_l1 then
    complete
      ~name:(if e.arg_a = 1 then "l1.hit" else "l1.miss")
      ~tid:e.track ~ts:e.ts ~dur:e.dur
      ~args:[ ("sector", Json.Int e.arg_b) ]
      ()
  else if e.kind = Ring.kind_l2 then
    let name =
      match e.arg_a with
      | 0 -> "l2.load_miss"
      | 1 -> "l2.load_hit"
      | 2 -> "l2.store_miss"
      | _ -> "l2.store_hit"
    in
    complete ~name ~tid:n_sms ~ts:e.ts ~dur:e.dur
      ~args:[ ("sector", Json.Int e.arg_b); ("sm", Json.Int e.track) ]
      ()
  else if e.kind = Ring.kind_tlb then
    complete ~name:"tlb.walk" ~tid:(n_sms + 3) ~ts:e.ts ~dur:e.dur
      ~args:
        [
          ("levels", Json.Int e.arg_a);
          ("sector", Json.Int e.arg_b);
          ("sm", Json.Int e.track);
        ]
      ()
  else
    complete
      ~name:(if e.arg_a >= 2 then "dram.fill" else "dram.store")
      ~tid:(n_sms + 1) ~ts:e.ts ~dur:e.dur
      ~args:[ ("sectors", Json.Int e.arg_a); ("sm", Json.Int e.track) ]
      ()

let counter_events timeline =
  let quantities =
    [
      ("ipc", fun row ->
          let c = Stats.cycles row in
          if c <= 0. then 0.
          else float_of_int (Stats.total_instructions row) /. c);
      ("l1.hit_rate", Stats.l1_hit_rate);
      ("l2.hit_rate", Stats.l2_hit_rate);
      ("dram.sectors_per_cycle", fun row ->
          let c = Stats.cycles row in
          if c <= 0. then 0. else float_of_int (Stats.dram_sectors row) /. c);
    ]
  in
  List.concat_map
    (fun (start, row) ->
      List.map
        (fun (name, extract) -> counter ~name ~ts:start ~value:(extract row))
        quantities)
    (Timeline.windows timeline)

let to_json ?timeline ~workload ~technique (dump : Telemetry.dump) =
  let n_sms = dump.n_sms in
  let kernel_spans =
    List.map
      (fun (k : Telemetry.kernel_span) ->
        complete
          ~name:(Printf.sprintf "kernel %d" k.index)
          ~tid:(n_sms + 2) ~ts:k.start ~dur:k.dur
          ~args:[ ("launch", Json.Int k.index) ]
          ())
      dump.kernels
  in
  let events =
    Array.to_list (Array.map (event_json n_sms) dump.events)
  in
  let counters =
    match timeline with None -> [] | Some t -> counter_events t
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.List (thread_names n_sms @ kernel_spans @ events @ counters) );
      ("displayTimeUnit", Json.String "ns");
      ( "otherData",
        Json.Obj
          [
            ("workload", Json.String workload);
            ("technique", Json.String technique);
            ("window", Json.Int dump.window);
            ("dropped", Json.Int dump.dropped);
          ] );
    ]

(* {2 Span ring} *)

module Ring = struct
  type span = {
    name : string;
    track : int;
    trace : int;
    ts : float;
    dur : float;
  }

  (* SoA, like Telemetry.Ring: the component arrays are allocated once at
     [create] so [record] writes fields in place and allocates nothing
     (float array stores are unboxed). *)
  type t = {
    names : string array;
    tracks : int array;
    traces : int array;
    tss : float array;
    durs : float array;
    mutable head : int;  (* next write slot *)
    mutable total : int;  (* spans ever recorded *)
    mutex : Mutex.t;
  }

  let create ~capacity =
    let capacity = max 1 capacity in
    {
      names = Array.make capacity "";
      tracks = Array.make capacity 0;
      traces = Array.make capacity 0;
      tss = Array.make capacity 0.;
      durs = Array.make capacity 0.;
      head = 0;
      total = 0;
      mutex = Mutex.create ();
    }

  let record t ~name ~track ~trace ~ts ~dur =
    Mutex.lock t.mutex;
    let i = t.head in
    t.names.(i) <- name;
    t.tracks.(i) <- track;
    t.traces.(i) <- trace;
    t.tss.(i) <- ts;
    t.durs.(i) <- dur;
    t.head <- (if i + 1 = Array.length t.names then 0 else i + 1);
    t.total <- t.total + 1;
    Mutex.unlock t.mutex

  let recorded t =
    Mutex.lock t.mutex;
    let n = t.total in
    Mutex.unlock t.mutex;
    n

  let dropped t =
    Mutex.lock t.mutex;
    let n = max 0 (t.total - Array.length t.names) in
    Mutex.unlock t.mutex;
    n

  let dump t =
    Mutex.lock t.mutex;
    let cap = Array.length t.names in
    let live = min t.total cap in
    (* Oldest-first: when full, the oldest surviving span sits at
       [head]; otherwise the ring starts at slot 0. *)
    let start = if t.total >= cap then t.head else 0 in
    let spans =
      List.init live (fun k ->
          let i = (start + k) mod cap in
          {
            name = t.names.(i);
            track = t.tracks.(i);
            trace = t.traces.(i);
            ts = t.tss.(i);
            dur = t.durs.(i);
          })
    in
    Mutex.unlock t.mutex;
    spans
end

let spans_to_json ?(tracks = []) spans =
  let names =
    List.map
      (fun (tid, label) ->
        metadata ~name:"thread_name" ~tid
          ~args:[ ("name", Json.String label) ])
      tracks
  in
  let events =
    List.map
      (fun (s : Ring.span) ->
        complete ~name:s.name ~tid:s.track ~ts:(s.ts *. 1e6)
          ~dur:(s.dur *. 1e6)
          ~args:[ ("trace", Json.Int s.trace) ]
          ())
      spans
  in
  Json.Obj
    [
      ("traceEvents", Json.List (names @ events));
      ("displayTimeUnit", Json.String "ms");
    ]

(* {2 Validation} *)

let validate json =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let* events =
    match Json.member "traceEvents" json with
    | Some (Json.List es) -> Ok es
    | Some _ -> Error "traceEvents is not a list"
    | None -> Error "missing traceEvents"
  in
  let check i ev =
    let fail msg = Error (Printf.sprintf "event %d: %s" i msg) in
    match ev with
    | Json.Obj _ ->
      let* ph =
        match Json.member "ph" ev with
        | Some (Json.String ph) when List.mem ph [ "X"; "C"; "M" ] -> Ok ph
        | Some (Json.String ph) -> fail ("unexpected phase " ^ ph)
        | _ -> fail "missing ph"
      in
      let* () =
        match Json.member "name" ev with
        | Some (Json.String _) -> Ok ()
        | _ -> fail "missing name"
      in
      let* () =
        match (Json.member "pid" ev, Json.member "tid" ev) with
        | Some (Json.Int _), Some (Json.Int _) -> Ok ()
        | _ -> fail "pid/tid must be integers"
      in
      let number = function
        | Some (Json.Float _) | Some (Json.Int _) -> true
        | _ -> false
      in
      let* () =
        if number (Json.member "ts" ev) then Ok () else fail "missing ts"
      in
      if ph = "X" then
        match Json.member "dur" ev with
        | Some (Json.Float d) when d >= 0. -> Ok ()
        | Some (Json.Int d) when d >= 0 -> Ok ()
        | Some _ -> fail "negative dur"
        | None -> fail "X phase without dur"
      else Ok ()
    | _ -> fail "not an object"
  in
  let rec go i = function
    | [] -> Ok ()
    | ev :: rest -> ( match check i ev with Ok () -> go (i + 1) rest | e -> e)
  in
  go 0 events
