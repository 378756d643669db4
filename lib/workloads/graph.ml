module Rng = Repro_util.Rng

type t = {
  n_vertices : int;
  out_start : int array;
  out_edges : int array;
  out_dst : int array;
}

let n_edges t = Array.length t.out_edges

let out_degree t v = t.out_start.(v + 1) - t.out_start.(v)

let build ~seed ~n_vertices ~n_edges =
  let rng = Rng.create ~seed in
  let src = Array.make n_edges 0 in
  let dst = Array.make n_edges 0 in
  for i = 0 to n_edges - 1 do
    let s =
      if i = 0 then 0 (* guarantee the BFS source has an out-edge *)
      else Rng.int rng n_vertices
    in
    (* Preferential attachment flavour: half the time the destination is
       an earlier edge's endpoint, concentrating in-degree. *)
    let d =
      if i > 0 && Rng.bool rng then dst.(Rng.int rng i)
      else Rng.int rng n_vertices
    in
    src.(i) <- s;
    dst.(i) <- (if d = s then (d + 1) mod n_vertices else d)
  done;
  (* Counting sort of the edges by source. Filling in ascending edge
     order keeps each source's run ascending. *)
  let out_start = Array.make (n_vertices + 1) 0 in
  Array.iter (fun s -> out_start.(s + 1) <- out_start.(s + 1) + 1) src;
  for v = 0 to n_vertices - 1 do
    out_start.(v + 1) <- out_start.(v + 1) + out_start.(v)
  done;
  let cursor = Array.sub out_start 0 n_vertices in
  let out_edges = Array.make n_edges 0 in
  let out_dst = Array.make n_edges 0 in
  for e = 0 to n_edges - 1 do
    let k = cursor.(src.(e)) in
    out_edges.(k) <- e;
    out_dst.(k) <- dst.(e);
    cursor.(src.(e)) <- k + 1
  done;
  { n_vertices; out_start; out_edges; out_dst }

(* The last graph generated, with its key. One entry suffices: a sweep
   builds every GraphChi cell of one pass from one (seed, sizes). An
   [Atomic] so that domains building cells at once each see a whole
   entry; a lost race only costs a second, equal generation. *)
let memo : (int * int * int * t) option Atomic.t = Atomic.make None

let generate ?(seed = 7) ~n_vertices ~n_edges () =
  if n_vertices < 2 then invalid_arg "Graph.generate: need at least two vertices";
  if n_edges < 1 then invalid_arg "Graph.generate: need at least one edge";
  match Atomic.get memo with
  | Some (s, nv, ne, g) when s = seed && nv = n_vertices && ne = n_edges -> g
  | _ ->
    let g = build ~seed ~n_vertices ~n_edges in
    Atomic.set memo (Some (seed, n_vertices, n_edges, g));
    g

let reachable_within t ~source ~hops =
  let reach = Array.make t.n_vertices false in
  reach.(source) <- true;
  for _ = 1 to hops do
    let frontier = Array.copy reach in
    for v = 0 to t.n_vertices - 1 do
      if frontier.(v) then
        for k = t.out_start.(v) to t.out_start.(v + 1) - 1 do
          reach.(t.out_dst.(k)) <- true
        done
    done
  done;
  reach
