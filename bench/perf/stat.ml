let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let check_nonempty fn xs =
  if Array.length xs = 0 then invalid_arg (fn ^ ": no samples")

let median xs =
  check_nonempty "Stat.median" xs;
  let a = sorted xs in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's [statistics.quantiles(data, n=4)] ("exclusive" method),
   clamp included, so a spread computed here equals the one Python's
   standard library gives for the same values. *)
let quartiles xs =
  check_nonempty "Stat.quartiles" xs;
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 1 then (a.(0), a.(0), a.(0))
  else begin
    let m = ld + 1 and n = 4 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
      /. float_of_int n
    in
    (q 1, q 2, q 3)
  end

let iqr xs =
  let q1, _, q3 = quartiles xs in
  q3 -. q1

let spread xs =
  let m = median xs in
  if m = 0. then 0. else iqr xs /. Float.abs m

(* [ceil (p/100 * n)], immune to the rounding of p/100 (99.9% of 10000
   is rank 9990, not 9991). *)
let rank ~n p = int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9))

let percentile xs p =
  check_nonempty "Stat.percentile" xs;
  let a = sorted xs in
  let n = Array.length a in
  a.(max 0 (min (n - 1) (rank ~n p - 1)))

let beyond ~n p = n - rank ~n p

let ladder = [ 99.9; 99.; 95.; 90.; 75.; 50. ]

let tail_percentile n = List.find_opt (fun p -> beyond ~n p >= 10) ladder
