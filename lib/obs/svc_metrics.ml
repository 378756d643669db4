module C = Repro_util.Counter_table

type kind = C.kind = Counter | Gauge
type value = C.value = Int of int | Float of float
type metric = C.entry

let name (m : metric) = m.id
let kind (m : metric) = m.kind
let units (m : metric) = m.units

(* Declaration order is registry order, slot order and wire order. *)
let table = C.create ()

let jobs_submitted = C.declare table Counter "jobs.submitted" "jobs"
let jobs_executed = C.declare table Counter "jobs.executed" "jobs"
let dedup_hits = C.declare table Counter "dedup.hits" "jobs"
let cache_hits = C.declare table Counter "cache.hits" "jobs"
let cache_misses = C.declare table Counter "cache.misses" "jobs"
let stampede_avoided = C.declare table Counter "cache.stampede_avoided" "jobs"
let requests = C.declare table Counter "requests.total" "requests"
let slow_requests = C.declare table Counter "requests.slow" "requests"
let responses = C.declare table Counter "responses.total" "responses"
let decode_errors = C.declare table Counter "decode.errors" "requests"
let bytes_in = C.declare table Counter "bytes.in" "bytes"
let bytes_out = C.declare table Counter "bytes.out" "bytes"
let worker_busy_s = C.declare table ~float:true Counter "worker.busy_s" "seconds"
let sessions = C.declare table Gauge "sessions" "clients"
let queue_depth = C.declare table Gauge "queue.depth" "jobs"
let inflight = C.declare table Gauge "inflight.size" "jobs"
let jobs_running = C.declare table Gauge "jobs.running" "jobs"

let all = C.entries table
let find n = List.find_opt (fun m -> name m = n) all

(* Every value lives unboxed in one float array (integers are exact up
   to 2^53), so a bump is a load, an add and a store. *)
type snapshot = float array

let zero = C.zero table

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
  { values = C.zero table; stages = Array.map (fun _ -> Hist.create ()) names }

let stage_hist t s = t.stages.(stage_index s)

let stage t name =
  match List.find_index (String.equal name) stage_names with
  | Some i -> t.stages.(i)
  | None -> raise Not_found

let add t (m : metric) n = t.values.(m.slot) <- t.values.(m.slot) +. float_of_int n
let incr t m = add t m 1
let add_float t (m : metric) x = t.values.(m.slot) <- t.values.(m.slot) +. x
let set t (m : metric) n = t.values.(m.slot) <- float_of_int n
let snapshot t = Array.copy t.values
let value = C.value
let count m s = int_of_float (m.C.read s)
let null_clock () = 0.
let to_json s = Json.of_counters table s

let decoder j =
  let s = C.zero table in
  Json.Decode.counters table s j;
  s
