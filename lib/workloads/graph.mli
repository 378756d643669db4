(** Synthetic graph inputs for the GraphChi workloads.

    The paper runs GraphChi's BFS/CC/PageRank over large real graphs; we
    generate deterministic scale-free-ish directed graphs instead
    (preferential attachment over a random base), which preserves what
    matters for the study: skewed degrees, poor locality of neighbor
    accesses, and #edges >> #vertices. Functional validation is done the
    way the paper does it — all five techniques must produce identical
    results — plus algorithmic invariants checked in the tests.

    Edges are numbered in generation order; a graph stores them in CSR
    order (grouped by source), which is the order the GraphChi loader
    allocates them in. *)

type t = {
  n_vertices : int;
  out_start : int array;
      (** [n_vertices + 1] offsets: vertex [v]'s out-edges are CSR slots
          [out_start.(v) .. out_start.(v+1) - 1]. *)
  out_edges : int array;
      (** The edge number of each CSR slot, ascending within each
          source. *)
  out_dst : int array;  (** The destination of each CSR slot. *)
}
(** A generated graph is shared (see {!generate}): treat every array as
    read-only. *)

val n_edges : t -> int

val out_degree : t -> int -> int

val generate : ?seed:int -> n_vertices:int -> n_edges:int -> unit -> t
(** Self-loops are avoided; multi-edges may occur (as in real inputs).
    Vertex 0 is guaranteed to have at least one outgoing edge (it is the
    BFS source).

    The result for the most recent [(seed, n_vertices, n_edges)] is
    memoized: a repeated key returns the same physical graph, and any
    other key replaces the one entry. Safe to call from several domains
    at once. *)

val reachable_within : t -> source:int -> hops:int -> bool array
(** The vertices at most [hops] edges away from [source]. *)
