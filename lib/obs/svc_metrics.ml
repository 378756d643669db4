type kind = Counter | Gauge
type value = Int of int | Float of float

type metric = {
  m_name : string;
  m_kind : kind;
  m_units : string;
  m_slot : int;     (* index into the value array *)
  m_float : bool;   (* reads back as [Float], else as [Int] *)
}

let name m = m.m_name
let kind m = m.m_kind
let units m = m.m_units

(* Declaration order is registry order, slot order and wire order. *)
let declared = ref []

let declare ?(float = false) kind name units =
  let m =
    { m_name = name; m_kind = kind; m_units = units;
      m_slot = List.length !declared; m_float = float }
  in
  declared := m :: !declared;
  m

let jobs_submitted = declare Counter "jobs.submitted" "jobs"
let jobs_executed = declare Counter "jobs.executed" "jobs"
let dedup_hits = declare Counter "dedup.hits" "jobs"
let cache_hits = declare Counter "cache.hits" "jobs"
let cache_misses = declare Counter "cache.misses" "jobs"
let stampede_avoided = declare Counter "cache.stampede_avoided" "jobs"
let requests = declare Counter "requests.total" "requests"
let slow_requests = declare Counter "requests.slow" "requests"
let responses = declare Counter "responses.total" "responses"
let decode_errors = declare Counter "decode.errors" "requests"
let bytes_in = declare Counter "bytes.in" "bytes"
let bytes_out = declare Counter "bytes.out" "bytes"
let worker_busy_s = declare ~float:true Counter "worker.busy_s" "seconds"
let sessions = declare Gauge "sessions" "clients"
let queue_depth = declare Gauge "queue.depth" "jobs"
let inflight = declare Gauge "inflight.size" "jobs"
let jobs_running = declare Gauge "jobs.running" "jobs"

let all = List.rev !declared
let find n = List.find_opt (fun m -> m.m_name = n) all

(* Every value lives unboxed in one float array (integers are exact up
   to 2^53), so a bump is a load, an add and a store. *)
type snapshot = float array

let zero = Array.make (List.length all) 0.

type stage = Decode | Queued | Dedup_wait | Cache_probe | Run | Encode | Request

let stage_index = function
  | Decode -> 0
  | Queued -> 1
  | Dedup_wait -> 2
  | Cache_probe -> 3
  | Run -> 4
  | Encode -> 5
  | Request -> 6

let names =
  [| "decode"; "queued"; "dedup_wait"; "cache_probe"; "run"; "encode";
     "request" |]

let stage_names = Array.to_list names
let stage_name i = names.(i)

type t = { values : float array; stages : Hist.t array }

let create () =
  { values = Array.copy zero; stages = Array.map (fun _ -> Hist.create ()) names }

let stage_hist t s = t.stages.(stage_index s)

let stage t name =
  match List.find_index (String.equal name) stage_names with
  | Some i -> t.stages.(i)
  | None -> raise Not_found

let add t m n = t.values.(m.m_slot) <- t.values.(m.m_slot) +. float_of_int n
let incr t m = add t m 1
let add_float t m x = t.values.(m.m_slot) <- t.values.(m.m_slot) +. x
let set t m n = t.values.(m.m_slot) <- float_of_int n
let snapshot t = Array.copy t.values

let value m s =
  let v = s.(m.m_slot) in
  if m.m_float then Float v else Int (int_of_float v)

let count m s = int_of_float s.(m.m_slot)

let null_clock () = 0.

let to_json s =
  Json.Obj
    (List.map
       (fun m ->
         ( m.m_name,
           match value m s with Int i -> Json.Int i | Float f -> Json.Float f ))
       all)

let decoder j =
  let open Json.Decode in
  let s = Array.copy zero in
  List.iter
    (fun m ->
      s.(m.m_slot) <-
        (if m.m_float then field_default m.m_name float 0. j
         else float_of_int (field_default m.m_name int 0 j)))
    all;
  s
