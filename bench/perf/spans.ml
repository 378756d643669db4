module Json = Repro_obs.Json

type span = {
  id : int;
  parent : int;
  name : string;
  tid : int;
  t0 : float;
  mutable t1 : float;
  args : (string * Json.t) list;
}

type t = { tid : int; mutable spans : span list }

let epoch = Unix.gettimeofday ()
let next_id = Atomic.make 1
let create ~tid = { tid; spans = [] }

let add t ?(parent = 0) ?(args = []) name ~t0 ~t1 =
  let s = { id = Atomic.fetch_and_add next_id 1; parent; name; tid = t.tid; t0; t1; args } in
  t.spans <- s :: t.spans;
  s

let record t ?parent ?args name ~t0 ~t1 = ignore (add t ?parent ?args name ~t0 ~t1)

let start t ?parent ?args name =
  let now = Unix.gettimeofday () in
  add t ?parent ?args name ~t0:now ~t1:now

let stop s = s.t1 <- Unix.gettimeofday ()
let id s = s.id

let us seconds = Json.Float (seconds *. 1e6)

let event ~pid s =
  Json.Obj
    [
      ("name", Json.String s.name);
      ("ph", Json.String "X");
      ("pid", Json.Int pid);
      ("tid", Json.Int s.tid);
      ("ts", us (s.t0 -. epoch));
      ("dur", us (Float.max 0. (s.t1 -. s.t0)));
      ("args", Json.Obj (("id", Json.Int s.id) :: ("parent", Json.Int s.parent) :: s.args));
    ]

let thread_name ~pid (tid, name) =
  Json.Obj
    [
      ("name", Json.String "thread_name");
      ("ph", Json.String "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("ts", Json.Float 0.);
      ("args", Json.Obj [ ("name", Json.String name) ]);
    ]

let to_chrome ~pid ~threads ?(extra = []) recorders =
  let spans =
    List.concat_map (fun r -> List.rev r.spans) recorders
    |> List.sort (fun a b -> Float.compare a.t0 b.t0)
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (List.map (thread_name ~pid) threads @ List.map (event ~pid) spans @ extra) );
      ("displayTimeUnit", Json.String "ms");
    ]

type row = { name : string; count : int; total_s : float; self_s : float }

let self_times doc =
  let events =
    match Option.bind (Json.member "traceEvents" doc) Json.list_opt with
    | Some evs ->
      List.filter (fun e -> Json.member "ph" e = Some (Json.String "X")) evs
    | None -> []
  in
  let arg key e =
    Option.bind (Json.member "args" e) (fun a -> Option.bind (Json.member key a) Json.int_opt)
  in
  let dur e = Option.value ~default:0. (Option.bind (Json.member "dur" e) Json.float_opt) /. 1e6 in
  let children = Hashtbl.create 256 in
  List.iter
    (fun e ->
      match arg "parent" e with
      | Some p when p > 0 ->
        Hashtbl.replace children p (dur e +. Option.value ~default:0. (Hashtbl.find_opt children p))
      | _ -> ())
    events;
  let rows = Hashtbl.create 32 and order = ref [] in
  List.iter
    (fun e ->
      let name = Option.value ~default:"?" (Option.bind (Json.member "name" e) Json.string_opt) in
      let d = dur e in
      let inner =
        match arg "id" e with
        | Some id -> Option.value ~default:0. (Hashtbl.find_opt children id)
        | None -> 0.
      in
      let r =
        match Hashtbl.find_opt rows name with
        | Some r -> r
        | None ->
          order := name :: !order;
          { name; count = 0; total_s = 0.; self_s = 0. }
      in
      Hashtbl.replace rows name
        { r with count = r.count + 1; total_s = r.total_s +. d; self_s = r.self_s +. d -. inner })
    events;
  List.rev_map (Hashtbl.find rows) !order

let total rows name =
  match List.find_opt (fun r -> r.name = name) rows with Some r -> r.total_s | None -> 0.
