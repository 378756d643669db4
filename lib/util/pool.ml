let available_workers () = Domain.recommended_domain_count ()

(* Compute domains alive in this process: the main domain plus every
   domain spawned here and not yet joined. *)
let live = Atomic.make 1

let live_domains () = Atomic.get live

let start f =
  match Domain.spawn f with
  | d -> d
  | exception e ->
    Atomic.decr live;
    raise e

let spawn f =
  Atomic.incr live;
  start f

let join d =
  Fun.protect ~finally:(fun () -> Atomic.decr live) (fun () -> Domain.join d)

(* Reserve a slot below the budget, or fail without waiting. *)
let rec try_spawn f =
  let n = Atomic.get live in
  if n >= available_workers () then None
  else if Atomic.compare_and_set live n (n + 1) then Some (start f)
  else try_spawn f

let guarded f x = try Ok (f x) with e -> Error e

let map ~jobs ~f inputs =
  let n = Array.length inputs in
  let jobs = max 1 (min jobs n) in
  if jobs = 1 then Array.map (guarded f) inputs
  else begin
    let results = Array.make n (Error Exit) in
    let next = Atomic.make 0 in
    (* Distinct domains only ever write distinct slots, so the result
       array needs no lock; the joins publish the writes. *)
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- guarded f inputs.(i);
          loop ()
        end
      in
      loop ()
    in
    let spawned = Array.init (jobs - 1) (fun _ -> spawn worker) in
    worker ();
    Array.iter join spawned;
    results
  end

module Feed = struct
  exception Aborted

  type t = {
    mark : int Atomic.t;
    aborted : bool Atomic.t;
    sleeping : bool Atomic.t;
    m : Mutex.t;
    c : Condition.t;
  }

  let create () =
    {
      mark = Atomic.make 0;
      aborted = Atomic.make false;
      sleeping = Atomic.make false;
      m = Mutex.create ();
      c = Condition.create ();
    }

  (* The waiter raises [sleeping] before its last look at the mark, and
     the publisher looks at [sleeping] after moving the mark, so one of
     the two always sees the other: a wake-up is never lost. *)
  let wake t =
    if Atomic.get t.sleeping then begin
      Mutex.lock t.m;
      Condition.broadcast t.c;
      Mutex.unlock t.m
    end

  let publish t n =
    Atomic.set t.mark n;
    wake t

  let abort t =
    Atomic.set t.aborted true;
    wake t

  (* The publisher seals a warp every few microseconds, so a short spin
     usually beats sleeping. *)
  let spins = 2000

  let await t i =
    let rec spin k =
      if Atomic.get t.mark > i then ()
      else if Atomic.get t.aborted then raise Aborted
      else if k > 0 then begin
        Domain.cpu_relax ();
        spin (k - 1)
      end
      else begin
        Mutex.lock t.m;
        Atomic.set t.sleeping true;
        while Atomic.get t.mark <= i && not (Atomic.get t.aborted) do
          Condition.wait t.c t.m
        done;
        Atomic.set t.sleeping false;
        Mutex.unlock t.m;
        if Atomic.get t.mark <= i then raise Aborted
      end
    in
    spin spins
end

module Helper = struct
  type t = {
    m : Mutex.t;
    c : Condition.t;  (* signalled on every change below *)
    jobs : (unit -> unit) Queue.t;
    mutable busy : bool;  (* a job is running *)
    mutable failed : exn option;
    mutable closed : bool;
    mutable domain : unit Domain.t option;
  }

  (* At most this many jobs are queued or running: one runs while the
     next is being fed. *)
  let depth = 2

  let outstanding t = Queue.length t.jobs + if t.busy then 1 else 0

  let loop t () =
    Mutex.lock t.m;
    let rec next () =
      match Queue.take_opt t.jobs with
      | Some job ->
        t.busy <- true;
        let skip = t.failed <> None in
        Mutex.unlock t.m;
        let r = if skip then None else (try job (); None with e -> Some e) in
        Mutex.lock t.m;
        t.busy <- false;
        if t.failed = None then t.failed <- r;
        Condition.broadcast t.c;
        next ()
      | None when t.closed -> ()
      | None ->
        Condition.wait t.c t.m;
        next ()
    in
    next ();
    Mutex.unlock t.m

  let reraise t = match t.failed with Some e -> raise e | None -> ()

  let submit t job =
    Mutex.lock t.m;
    while t.failed = None && outstanding t >= depth do
      Condition.wait t.c t.m
    done;
    if t.failed = None then begin
      Queue.add job t.jobs;
      Condition.broadcast t.c
    end;
    Mutex.unlock t.m;
    reraise t

  let drain t =
    Mutex.lock t.m;
    let closed = t.closed in
    while t.failed = None && outstanding t > 0 do
      Condition.wait t.c t.m
    done;
    Mutex.unlock t.m;
    (* The scope's exit already reported a failure. *)
    if not closed then reraise t

  let close t =
    Mutex.lock t.m;
    t.closed <- true;
    Condition.broadcast t.c;
    Mutex.unlock t.m;
    Option.iter join t.domain;
    t.domain <- None

  (* The open scope of the calling domain, and its helper once spawned. *)
  type scope = { mutable helper : t option }

  let key : scope option ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref None)

  let scope f =
    let cur = Domain.DLS.get key in
    match !cur with
    | Some _ -> f ()
    | None ->
      let sc = { helper = None } in
      cur := Some sc;
      Fun.protect
        ~finally:(fun () ->
          cur := None;
          Option.iter close sc.helper)
        (fun () ->
          let r = f () in
          Option.iter drain sc.helper;
          r)

  let current () =
    match !(Domain.DLS.get key) with
    | None -> None
    | Some { helper = Some _ as h } -> h
    | Some _ when live_domains () >= available_workers () -> None
    | Some sc ->
      let t =
        {
          m = Mutex.create ();
          c = Condition.create ();
          jobs = Queue.create ();
          busy = false;
          failed = None;
          closed = false;
          domain = None;
        }
      in
      (match try_spawn (loop t) with
       | None -> None
       | Some d ->
         t.domain <- Some d;
         sc.helper <- Some t;
         sc.helper)
end
