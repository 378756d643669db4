module Page_store = Repro_mem.Page_store

type t = {
  heap : Page_store.t;
  trace : Trace.t;
  warp_id : int;
  lanes : int array;
  san : Repro_san.Checker.t option;
  (* Per-warp address buffer: callers (Garray, Dispatch) compute per-lane
     addresses into it and emit through [load_into]/[store_from] instead
     of building intermediate arrays. *)
  mutable ascratch : int array;
  (* Cached identity index maps ([|0; ...; n-1|]) per width, handed to
     divergence bodies when a branch is warp-uniform. Bodies treat the
     index map as read-only (they only gather through it), so sharing
     one array per width is safe. *)
  mutable idents : int array array;
}

let create ?san ?trace ~heap ~warp_id ~lanes () =
  if Array.length lanes = 0 then invalid_arg "Warp_ctx.create: empty warp";
  let trace = match trace with Some t -> t | None -> Trace.create () in
  { heap; trace; warp_id; lanes; san; ascratch = [||]; idents = [||] }

let addr_scratch t n =
  if Array.length t.ascratch < n then t.ascratch <- Array.make (max 32 n) 0;
  t.ascratch

let identity t n =
  if Array.length t.idents < n + 1 then begin
    let fresh = Array.make (n + 1) [||] in
    Array.blit t.idents 0 fresh 0 (Array.length t.idents);
    t.idents <- fresh
  end;
  if Array.length t.idents.(n) <> n then
    t.idents.(n) <- Array.init n (fun i -> i);
  t.idents.(n)

let trace t = t.trace

let warp_id t = t.warp_id

let tids t = t.lanes

let n_active t = Array.length t.lanes

let check_width t a label =
  if Array.length a <> n_active t then
    invalid_arg ("Warp_ctx." ^ label ^ ": per-lane array width mismatch")

let san_access_of_label label =
  match label with
  | Label.Vtable_load -> Repro_san.Checker.Vtable
  | Label.Vfunc_load -> Repro_san.Checker.Vfunc
  | _ -> Repro_san.Checker.Other

(* The sanitizer's view of one access. Loads and stores take a per-lane
   buffer that may be wider than the warp (the object model's field
   path, Garray and Dispatch fill a reusable one), so only the returned
   value array is allocated. The sanitizer needs an exact-width array;
   that copy only happens on sanitized runs with a wider buffer. *)
let sanitize t ~label ~width addrs n =
  match t.san with
  | None -> ()
  | Some san ->
    let addrs = if Array.length addrs = n then addrs else Array.sub addrs 0 n in
    Repro_san.Checker.check_access san ~warp:t.warp_id ~tids:t.lanes
      ~access:(san_access_of_label label) ~what:(Label.slug label) ~width
      ~addrs

(* The one load body. Tag stripping is fused into emission
   ([Trace.emit_mem_n]); the functional access reads the canonical
   addresses back from the lane-arena slice just written, so no
   intermediate stripped array is built. A warp-uniform load — every
   lane naming one address, as at a converged call site — skips the lane
   arena, the coalescer's sort and the per-lane lookups: it emits the
   same record with its one sector ([Trace.emit_load_uniform]) and reads
   the page once, through the same checks and exceptions. *)
let load_n t ~width ~label ~blocking addrs n =
  sanitize t ~label ~width addrs n;
  let a0 = addrs.(0) in
  let k = ref 1 in
  while !k < n && addrs.(!k) = a0 do
    incr k
  done;
  if !k = n then begin
    let a = Trace.emit_load_uniform t.trace ~label ~blocking ~n a0 in
    Array.make n (Page_store.load_byte_width t.heap a ~width)
  end
  else begin
    let off = Trace.emit_load_n t.trace ~label ~blocking addrs n in
    let out = Array.make n 0 in
    Page_store.load_batch t.heap (Trace.lane_arena t.trace) ~off ~n ~width out;
    out
  end

let load ?(width = 8) t ~label addrs =
  check_width t addrs "load";
  load_n t ~width ~label ~blocking:true addrs (Array.length addrs)

let load_nonblocking ?(width = 8) t ~label addrs =
  check_width t addrs "load";
  load_n t ~width ~label ~blocking:false addrs (Array.length addrs)

let load_into ?(width = 8) t ~label ~blocking ~addrs ~n =
  if n <> n_active t then
    invalid_arg "Warp_ctx.load_into: per-lane buffer width mismatch";
  load_n t ~width ~label ~blocking addrs n

let store_from ?(width = 8) t ~label ~addrs ~n values =
  if n <> n_active t || Array.length values <> n then
    invalid_arg "Warp_ctx.store_from: per-lane buffer width mismatch";
  sanitize t ~label ~width addrs n;
  let off = Trace.emit_store_n t.trace ~label addrs n in
  let arena = Trace.lane_arena t.trace in
  Page_store.store_batch t.heap arena ~off ~n ~width values

let store ?(width = 8) t ~label addrs values =
  check_width t addrs "store";
  check_width t values "store";
  store_from ~width t ~label ~addrs ~n:(Array.length addrs) values

let compute ?(n = 1) ?(blocking = false) t ~label =
  Trace.emit_compute t.trace ~label ~n ~blocking ~active:(n_active t)

let ctrl ?(n = 1) t ~label = Trace.emit_ctrl t.trace ~label ~n ~active:(n_active t)

let const_load t ~label =
  Trace.emit_const_load t.trace ~label ~active:(n_active t)

let call_indirect t ~label =
  Trace.emit_call_indirect t.trace ~label ~active:(n_active t)

let call_direct t ~label =
  Trace.emit_call_direct t.trace ~label ~active:(n_active t)

let gather idxs a = Array.map (fun i -> a.(i)) idxs

let scatter idxs dst src = Array.iteri (fun k i -> dst.(i) <- src.(k)) idxs

(* Distinct keys in first-occurrence order, with the member indices of each
   group: the specification [diverge] is tested against. Warps are at
   most 32 lanes wide so association lists are fine. *)
let group_by_key keys =
  let groups = ref [] in
  Array.iteri
    (fun i key ->
      match List.assoc_opt key !groups with
      | Some members -> members := i :: !members
      | None -> groups := (key, ref [ i ]) :: !groups)
    keys;
  List.rev_map (fun (key, members) -> (key, List.rev !members)) !groups

(* The same groups in the same first-occurrence order with the same
   member order as [group_by_key], built with array scans instead of
   association lists. One control instruction decides the branch; each
   extra executed subset costs a reconvergence-stack push, also modelled
   as a control op. The warp-uniform case — the common one at converged
   call sites — emits on [t] itself with a cached identity index map,
   allocating nothing. *)
let diverge t ~label ~keys body =
  check_width t keys "diverge";
  let n = Array.length keys in
  let k0 = keys.(0) in
  let uniform = ref true in
  let i = ref 1 in
  while !uniform && !i < n do
    if keys.(!i) <> k0 then uniform := false;
    incr i
  done;
  if !uniform then begin
    ctrl t ~label;
    body ~key:k0 t (identity t n)
  end
  else begin
    (* Distinct keys in first-occurrence order. Fresh (not scratch):
       [gk] stays live across body calls, and bodies may diverge again. *)
    let gk = Array.make n 0 in
    let ng = ref 0 in
    for i = 0 to n - 1 do
      let k = keys.(i) in
      let seen = ref false in
      for g = 0 to !ng - 1 do
        if gk.(g) = k then seen := true
      done;
      if not !seen then begin
        gk.(!ng) <- k;
        incr ng
      end
    done;
    for g = 0 to !ng - 1 do
      let k = gk.(g) in
      let m = ref 0 in
      for i = 0 to n - 1 do
        if keys.(i) = k then incr m
      done;
      let idxs = Array.make !m 0 in
      let j = ref 0 in
      for i = 0 to n - 1 do
        if keys.(i) = k then begin
          idxs.(!j) <- i;
          incr j
        end
      done;
      let sub = { t with lanes = gather idxs t.lanes } in
      ctrl sub ~label;
      body ~key:k sub idxs
    done
  end

let if_ t ~label ~pred then_ else_ =
  check_width t pred "if_";
  let keys = Array.map (fun b -> if b then 1 else 0) pred in
  diverge t ~label ~keys (fun ~key sub idxs ->
      if key = 1 then then_ sub idxs
      else match else_ with Some f -> f sub idxs | None -> ())
