module Stats = Repro_gpu.Stats
module Label = Repro_gpu.Label
module C = Repro_util.Counter_table

type value = C.value = Int of int | Float of float
type t = C.entry

let name (m : t) = m.id
let units (m : t) = m.units
let value m stats = C.value m (stats : Stats.t :> float array)
let to_float (m : t) stats = m.read (stats : Stats.t :> float array)

include Stats.Counter

let stall_cycles label = stalls.members.(Label.to_index label)

let load_transactions_for label =
  load_transactions_by_label.members.(Label.to_index label)

let san_violations_for kind =
  san_violations.members.(Repro_san.Violation.kind_index kind)

let scalars =
  List.filter_map
    (function C.Scalar e -> Some e | C.Family _ -> None)
    (C.fields Stats.table)

let per_label =
  Array.to_list stalls.members @ Array.to_list load_transactions_by_label.members

let san = Array.to_list san_violations.members
let counters = C.entries Stats.table
let derived = [ instructions_total; l1_hit_rate; l2_hit_rate; stall_cycles_total ]
let all = counters @ derived
let find n = List.find_opt (fun m -> name m = n) all

let json_value = function Int i -> Json.Int i | Float f -> Json.Float f

let to_json ?(metrics = all) stats =
  Json.Obj (List.map (fun m -> (name m, json_value (value m stats))) metrics)

(* {2 Rendering} *)

let pp_value ppf = function
  | Int i -> Format.fprintf ppf "%d" i
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then Format.fprintf ppf "%.0f" f
    else Format.fprintf ppf "%.4g" f

let pp_stats ppf stats =
  let width =
    List.fold_left (fun acc m -> max acc (String.length (name m))) 0 all
  in
  Format.pp_open_vbox ppf 0;
  let first = ref true in
  List.iter
    (fun m ->
      let v = value m stats in
      let skip =
        (* Per-label zeros would drown the signal: a run under one
           technique exercises only that technique's labels. Sanitizer
           and telemetry-drop counters likewise only matter when
           something fired. *)
        (match v with Int i -> i = 0 | Float f -> f = 0.)
        && List.memq m
             ((trace_dropped :: tlb_l1_hits :: tlb_l2_hits :: tlb_walks
               :: tlb_walk_cycles :: per_label)
             @ san)
      in
      if not skip then begin
        if not !first then Format.pp_print_cut ppf ();
        first := false;
        Format.fprintf ppf "%-*s  %a [%s]" width (name m) pp_value v (units m)
      end)
    all;
  Format.pp_close_box ppf ()
