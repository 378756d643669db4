type t = {
  cap : int;
  kind : int array;
  track : int array;
  arg_a : int array;
  arg_b : int array;
  ts : float array;
  dur : float array;
  cells : float array;
  mutable head : int;
  mutable len : int;
  mutable dropped : int;
  mutable all_dropped : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Event_ring: capacity must be positive";
  {
    cap = capacity;
    kind = Array.make capacity 0;
    track = Array.make capacity 0;
    arg_a = Array.make capacity 0;
    arg_b = Array.make capacity 0;
    ts = Array.make capacity 0.;
    dur = Array.make capacity 0.;
    cells = Array.make 2 0.;
    head = 0;
    len = 0;
    dropped = 0;
    all_dropped = 0;
  }

let begin_launch t ~base =
  t.cells.(0) <- base;
  t.cells.(1) <- base

(* Wrap with a compare, not [mod]: this runs once per recorded event,
   and an integer divide on the hot path is most of the tracer's cost. *)
let bump t =
  let h = t.head + 1 in
  t.head <- (if h = t.cap then 0 else h);
  if t.len = t.cap then begin
    t.dropped <- t.dropped + 1;
    t.all_dropped <- t.all_dropped + 1
  end
  else t.len <- t.len + 1

(* [head] is always in [0, cap): it is only written by [bump] (which
   wraps) and [clear] (0), so the unsafe stores cannot go out of
   bounds. All six arrays share length [cap]. *)
let record t ~kind ~track ~a ~b ~ts ~dur =
  let i = t.head in
  Array.unsafe_set t.kind i kind;
  Array.unsafe_set t.track i track;
  Array.unsafe_set t.arg_a i a;
  Array.unsafe_set t.arg_b i b;
  let abs_ts = Array.unsafe_get t.cells 0 +. ts in
  Array.unsafe_set t.ts i abs_ts;
  Array.unsafe_set t.dur i dur;
  let e = abs_ts +. dur in
  if e > Array.unsafe_get t.cells 1 then Array.unsafe_set t.cells 1 e;
  bump t

let length t = t.len

let take_dropped t =
  let d = t.dropped in
  t.dropped <- 0;
  d

let all_dropped t = t.all_dropped

let max_end t = t.cells.(1)

let clear t =
  t.head <- 0;
  t.len <- 0;
  t.dropped <- 0;
  t.all_dropped <- 0;
  t.cells.(0) <- 0.;
  t.cells.(1) <- 0.

type event = {
  kind : int;
  track : int;
  arg_a : int;
  arg_b : int;
  ts : float;
  dur : float;
}

let events (t : t) =
  Array.init t.len (fun j ->
      let i = (t.head - t.len + j + (2 * t.cap)) mod t.cap in
      {
        kind = t.kind.(i);
        track = t.track.(i);
        arg_a = t.arg_a.(i);
        arg_b = t.arg_b.(i);
        ts = t.ts.(i);
        dur = t.dur.(i);
      })
