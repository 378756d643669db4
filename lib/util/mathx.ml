let mean = function
  | [] -> invalid_arg "Mathx.mean: empty list"
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> invalid_arg "Mathx.geomean: empty list"
  | xs ->
    let sum_logs =
      List.fold_left
        (fun acc x ->
          if x <= 0. then invalid_arg "Mathx.geomean: non-positive input";
          acc +. log x)
        0. xs
    in
    exp (sum_logs /. float_of_int (List.length xs))

let ratio a b =
  if b = 0. then invalid_arg "Mathx.ratio: division by zero";
  a /. b

let percent part whole = if whole = 0. then 0. else 100. *. part /. whole

let clamp ~lo ~hi x = if x < lo then lo else if x > hi then hi else x

let ilog2 n =
  if n < 1 then invalid_arg "Mathx.ilog2: n must be >= 1";
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let ceil_pow2 n =
  if n < 1 then invalid_arg "Mathx.ceil_pow2: n must be >= 1";
  let rec go p = if p >= n then p else go (p lsl 1) in
  go 1

let ceil_div a b =
  if b <= 0 then invalid_arg "Mathx.ceil_div: b must be positive";
  (a + b - 1) / b
