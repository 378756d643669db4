type verdict = Gain | Regression | Unresolved | Unchanged | Worse

let verdict_name = function
  | Gain -> "gain"
  | Regression -> "regression"
  | Unresolved -> "unresolved"
  | Unchanged -> "no change"
  | Worse -> "worse"

let min_pairs = 10

(* Signed improvement of [b] over [a]: positive when [b] is better. *)
let improvement better a b =
  match better with Metrics.Higher -> b -. a | Metrics.Lower -> a -. b

let wins better ~parent ~change =
  let n = min (Array.length parent) (Array.length change) in
  let w = ref 0 and l = ref 0 in
  for i = 0 to n - 1 do
    let d = improvement better parent.(i) change.(i) in
    if d > 0. then incr w else if d < 0. then incr l
  done;
  (!w, !l, n)

let all_better better ~parent ~change =
  Array.for_all
    (fun c -> Array.for_all (fun p -> improvement better p c > 0.) parent)
    change

let judge better ~bound ~parent ~change =
  let w, l, n = wins better ~parent ~change in
  let mp = Stat.median parent and mc = Stat.median change in
  let gained = improvement better mp mc in
  let noise = Stat.iqr parent in
  let consistent k = n > 0 && 10 * k >= 9 * n in
  let wide b = Float.max (Stat.spread parent) (Stat.spread change) > b in
  if consistent w && gained > noise then Gain
  else
    match bound with
    | Some b when wide b && not (all_better better ~parent ~change) -> Unresolved
    | Some b when -.gained > b *. Float.abs mp -> Regression
    | _ -> if consistent l && -.gained > noise then Worse else Unchanged
