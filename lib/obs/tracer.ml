module Event_ring = Repro_util.Event_ring
module Telemetry = Repro_gpu.Telemetry
module Label = Repro_gpu.Label
module Stats = Repro_gpu.Stats

(* One trace event; ["X"] events carry a [dur]. Field order is the
   files' byte layout. *)
let event ~ph ~name ~tid ~ts ?dur args =
  Json.Obj
    ([ ("name", Json.String name); ("ph", Json.String ph); ("ts", Json.Float ts) ]
    @ (match dur with Some d -> [ ("dur", Json.Float d) ] | None -> [])
    @ [ ("pid", Json.Int 1); ("tid", Json.Int tid); ("args", Json.Obj args) ])

(* {2 The writer} *)

let chrome ~tracks ~describe ~scale ?(counters = []) ~meta events =
  let names =
    List.map
      (fun (tid, label) ->
        event ~ph:"M" ~name:"thread_name" ~tid ~ts:0.
          [ ("name", Json.String label) ])
      tracks
  in
  let spans =
    Array.to_list
      (Array.map
         (fun (e : Event_ring.event) ->
           let name, tid, args = describe e in
           event ~ph:"X" ~name ~tid ~ts:(e.ts *. scale) ~dur:(e.dur *. scale)
             args)
         events)
  in
  Json.Obj (("traceEvents", Json.List (names @ spans @ counters)) :: meta)

(* {2 The GPU trace} *)

(* Kernel launch spans are not ring events; they ride through the writer
   under a kind no ring writer uses, ahead of the ring's events. *)
let kind_kernel = -1

let gpu_tracks n_sms =
  List.init n_sms (fun i -> (i, Printf.sprintf "SM %d" i))
  @ [ (n_sms, "L2"); (n_sms + 1, "DRAM"); (n_sms + 2, "kernels");
      (n_sms + 3, "TLB") ]

let gpu_event n_sms (e : Event_ring.event) =
  if e.kind = kind_kernel then
    ( Printf.sprintf "kernel %d" e.arg_a,
      n_sms + 2,
      [ ("launch", Json.Int e.arg_a) ] )
  else if e.kind = Telemetry.kind_stall then
    ( "stall." ^ Label.slug (Label.of_index e.arg_a),
      e.track,
      [ ("warp", Json.Int e.arg_b) ] )
  else if e.kind = Telemetry.kind_l1 then
    ( (if e.arg_a = 1 then "l1.hit" else "l1.miss"),
      e.track,
      [ ("sector", Json.Int e.arg_b) ] )
  else if e.kind = Telemetry.kind_l2 then
    let name =
      match e.arg_a with
      | 0 -> "l2.load_miss"
      | 1 -> "l2.load_hit"
      | 2 -> "l2.store_miss"
      | _ -> "l2.store_hit"
    in
    (name, n_sms, [ ("sector", Json.Int e.arg_b); ("sm", Json.Int e.track) ])
  else if e.kind = Telemetry.kind_tlb then
    ( "tlb.walk",
      n_sms + 3,
      [
        ("levels", Json.Int e.arg_a);
        ("sector", Json.Int e.arg_b);
        ("sm", Json.Int e.track);
      ] )
  else
    ( (if e.arg_a >= 2 then "dram.fill" else "dram.store"),
      n_sms + 1,
      [ ("sectors", Json.Int e.arg_a); ("sm", Json.Int e.track) ] )

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
        (fun (name, extract) ->
          event ~ph:"C" ~name ~tid:0 ~ts:start
            [ ("value", Json.Float (extract row)) ])
        quantities)
    (Timeline.windows timeline)

let to_json ?timeline ~workload ~technique (dump : Telemetry.dump) =
  let n_sms = dump.n_sms in
  let kernels =
    Array.of_list
      (List.map
         (fun (k : Telemetry.kernel_span) ->
           { Event_ring.kind = kind_kernel; track = n_sms + 2; arg_a = k.index;
             arg_b = 0; ts = k.start; dur = k.dur })
         dump.kernels)
  in
  chrome ~tracks:(gpu_tracks n_sms) ~describe:(gpu_event n_sms) ~scale:1.
    ?counters:(Option.map counter_events timeline)
    ~meta:
      [
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
    (Array.append kernels dump.events)

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
