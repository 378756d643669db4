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

(* Wire key -> position, built as the keys are declared. *)
module Index = Hashtbl.Make (String)

let index_of index key =
  match Index.find index key with i -> i | exception Not_found -> -1

type family = {
  family_key : string;
  first : int;
  members : entry array;
  slugs : int Index.t;
}

type field = Scalar of entry | Family of family

(* Declaration order is slot order and wire order. Appending is
   quadratic, but tables are declared once, at start-up. *)
type t = { mutable positions : field array; mutable size : int; keys : int Index.t }

let create () = { positions = [||]; size = 0; keys = Index.create 16 }

let add_key what index key position =
  if Index.mem index key then
    invalid_arg (Printf.sprintf "Counter_table: %s %S declared twice" what key);
  Index.add index key position

let append t key field =
  add_key "key" t.keys key (Array.length t.positions);
  t.positions <- Array.append t.positions [| field |]

let stored ~id ~key ~kind ~units ~float ~strict slot =
  { id; key; kind; units; float; strict; slot; read = (fun v -> v.(slot)) }

let declare t ?key ?(float = false) ?(strict = false) kind id units =
  let key = Option.value key ~default:id in
  let e = stored ~id ~key ~kind ~units ~float ~strict t.size in
  t.size <- t.size + 1;
  append t key (Scalar e);
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
  let slugs = Index.create (Array.length members) in
  Array.iteri (fun i (e : entry) -> add_key "slug" slugs e.key i) members;
  t.size <- first + Array.length members;
  let f = { family_key = Option.value key ~default:id; first; members; slugs } in
  append t f.family_key (Family f);
  f

let computed ?(float = false) id units read =
  { id; key = id; kind = Counter; units; float; strict = false; slot = -1; read }

let fields t = Array.to_list t.positions
let positions t = t.positions

let key = function Scalar e -> e.key | Family f -> f.family_key

(* A reader of our own output finds each key at [hint], so that costs a
   string compare; the index answers the rest. *)
let position t ~hint k =
  if hint >= 0 && hint < Array.length t.positions
     && String.equal (key (Array.unsafe_get t.positions hint)) k
  then hint
  else index_of t.keys k

let member_position f ~hint slug =
  if hint >= 0 && hint < Array.length f.members
     && String.equal (Array.unsafe_get f.members hint).key slug
  then hint
  else index_of f.slugs slug

let entries t =
  List.concat_map
    (function Scalar e -> [ e ] | Family f -> Array.to_list f.members)
    (fields t)

let size t = t.size
let zero t = Array.make t.size 0.

let value e v =
  let x = e.read v in
  if e.float then Float x else Int (int_of_float x)
