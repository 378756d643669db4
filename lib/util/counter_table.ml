type kind = Counter | Gauge
type value = Int of int | Float of float

type entry = {
  id : string;
  key : string;
  kind : kind;
  units : string;
  float : bool;
  strict : bool;
  slot : int;
  read : float array -> float;
}

type family = { family_key : string; first : int; members : entry array }

type field = Scalar of entry | Family of family

(* Declaration order is slot order and wire order. Appending is
   quadratic, but tables are declared once, at start-up. *)
type t = { mutable fields : field list; mutable size : int }

let create () = { fields = []; size = 0 }

let stored ~id ~key ~kind ~units ~float ~strict slot =
  { id; key; kind; units; float; strict; slot; read = (fun v -> v.(slot)) }

let declare t ?key ?(float = false) ?(strict = false) kind id units =
  let key = Option.value key ~default:id in
  let e = stored ~id ~key ~kind ~units ~float ~strict t.size in
  t.size <- t.size + 1;
  t.fields <- t.fields @ [ Scalar e ];
  e

let family t ?key ?(float = false) id units slugs =
  let first = t.size in
  let members =
    Array.of_list
      (List.mapi
         (fun i slug ->
           stored ~id:(id ^ "." ^ slug) ~key:slug ~kind:Counter ~units ~float
             ~strict:false (first + i))
         slugs)
  in
  t.size <- first + Array.length members;
  let f = { family_key = Option.value key ~default:id; first; members } in
  t.fields <- t.fields @ [ Family f ];
  f

let computed ?(float = false) id units read =
  { id; key = id; kind = Counter; units; float; strict = false; slot = -1; read }

let fields t = t.fields

let entries t =
  List.concat_map
    (function Scalar e -> [ e ] | Family f -> Array.to_list f.members)
    (fields t)

let size t = t.size
let zero t = Array.make t.size 0.

let value e v =
  let x = e.read v in
  if e.float then Float x else Int (int_of_float x)
