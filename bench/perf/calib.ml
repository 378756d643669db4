(* The host-speed probe. On the 2-vCPU Xeon VM these bounds were set on,
   speed drifted by up to 1.5x over minutes, moving every wall-clock
   metric of a run together. The probe is a frozen miniature of the
   simulator's hot loop — LRU set-associative tag lookups over a 2 MB
   table, driven by a pseudo-random address stream — timed between units
   of work; a run's times are divided by its probe factor.

   The probe measures the host and nothing else. Each call resets the
   table, runs the lookups once untimed, which brings the table back into
   the host's caches, and then times an identical second run from the
   same state. Whatever ran before the probe, and however much of the
   host's caches it evicted, the timed run does the same work from the
   same cache contents. The probe lives here, not in the library, so no
   change to the repository changes its work. *)

let sets = 1 lsl 14
let ways = 8
(* Allocated on first use, so a daemon forked before any probe does not
   inherit them. *)
let table = lazy (Array.make (sets * ways) (-1), Array.make (sets * ways) 0)
let lookups = 200_000

(* Median probe time on the host the bounds were set on: a factor of 1
   means "as fast as then". *)
let reference_s = 0.0078

(* [lookups] lookups of the same address stream; [clock] orders the LRU
   ages and carries over from the warm run to the timed one. *)
let lookup_run tags ages clock =
  let x = ref 0x12345 and hits = ref 0 in
  for _ = 1 to lookups do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let line = (!x land 0xffffff) lsr 5 in
    let base = line land (sets - 1) * ways in
    incr clock;
    let found = ref (-1) in
    for i = base to base + ways - 1 do
      if tags.(i) = line then found := i
    done;
    if !found >= 0 then begin
      incr hits;
      ages.(!found) <- !clock
    end
    else begin
      let victim = ref base in
      for i = base + 1 to base + ways - 1 do
        if ages.(i) < ages.(!victim) then victim := i
      done;
      tags.(!victim) <- line;
      ages.(!victim) <- !clock
    end
  done;
  ignore (Sys.opaque_identity !hits)

type t = { mutable times : float list }

let create () = { times = [] }

(* Records the timed run; returns the whole probe's time, warm run
   included, for callers that take it out of their own. *)
let probe t =
  let tags, ages = Lazy.force table in
  let start = Unix.gettimeofday () in
  Array.fill tags 0 (Array.length tags) (-1);
  Array.fill ages 0 (Array.length ages) 0;
  let clock = ref 0 in
  lookup_run tags ages clock;
  let t0 = Unix.gettimeofday () in
  lookup_run tags ages clock;
  let t1 = Unix.gettimeofday () in
  t.times <- (t1 -. t0) :: t.times;
  t1 -. start

let factor t =
  match t.times with [] -> 1. | l -> Stat.median (Array.of_list l) /. reference_s

let factors t = Array.of_list (List.rev_map (fun s -> s /. reference_s) t.times)

(* The factor of the stretch between probes [i] and [i + 1]: the
   geometric mean of the two. *)
let between f i = sqrt (f.(i) *. f.(i + 1))
