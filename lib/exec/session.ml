type batch = {
  batch_id : string;
  total : int;
  mutable completed : int;
  mutable measured : int;
  mutable cached : int;
  mutable deduped : int;
  mutable failed : int;
  mutable wall_s : float;
  mutable trace : int;
  mutable started_at : float;
}

type t = {
  id : int;
  fd : Unix.file_descr;
  buf : Buffer.t;
  batches : (string, batch) Hashtbl.t;
  on_send : (bytes:int -> t0:float -> dur:float -> unit) option;
  mutable closed : bool;
}

let create ?on_send ~id fd =
  {
    id;
    fd;
    buf = Buffer.create 1024;
    batches = Hashtbl.create 4;
    on_send;
    closed = false;
  }

let max_line_bytes = 1 lsl 20

let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

(* Only the new bytes are scanned: a line's head waits in [buf] and is
   joined once its newline arrives, so a line trickled in byte by byte
   costs linear time, and the pending bytes never exceed the cap. *)
let feed t chunk =
  let n = String.length chunk in
  let rec go start acc =
    match String.index_from_opt chunk start '\n' with
    | Some i ->
      let line =
        if Buffer.length t.buf = 0 then String.sub chunk start (i - start)
        else begin
          Buffer.add_substring t.buf chunk start (i - start);
          let line = Buffer.contents t.buf in
          Buffer.clear t.buf;
          line
        end
      in
      if String.length line > max_line_bytes then overflow acc
      else go (i + 1) (strip_cr line :: acc)
    | None ->
      if Buffer.length t.buf + (n - start) > max_line_bytes then overflow acc
      else begin
        Buffer.add_substring t.buf chunk start (n - start);
        Ok (List.rev acc)
      end
  and overflow acc =
    Buffer.reset t.buf;
    Error (List.rev acc)
  in
  go 0 []

let send t response =
  if not t.closed then begin
    let t0 =
      match t.on_send with Some _ -> Unix.gettimeofday () | None -> 0.
    in
    let line = Response.to_line response ^ "\n" in
    let dur =
      match t.on_send with Some _ -> Unix.gettimeofday () -. t0 | None -> 0.
    in
    let bytes = Bytes.unsafe_of_string line in
    let len = Bytes.length bytes in
    let rec write_all off =
      if off < len then begin
        let n = Unix.write t.fd bytes off (len - off) in
        write_all (off + n)
      end
    in
    (try write_all 0 with Unix.Unix_error _ | Sys_error _ -> t.closed <- true);
    match t.on_send with
    | Some hook when not t.closed -> hook ~bytes:len ~t0 ~dur
    | _ -> ()
  end

let begin_batch t ~id ~total =
  let batch =
    {
      batch_id = id;
      total;
      completed = 0;
      measured = 0;
      cached = 0;
      deduped = 0;
      failed = 0;
      wall_s = 0.;
      trace = 0;
      started_at = 0.;
    }
  in
  Hashtbl.replace t.batches id batch;
  batch

let record_done t batch (outcome : Response.outcome) =
  batch.completed <- batch.completed + 1;
  (if outcome.Response.cached then batch.cached <- batch.cached + 1
   else if outcome.Response.deduped then batch.deduped <- batch.deduped + 1
   else batch.measured <- batch.measured + 1);
  (match outcome.Response.result with
   | Error _ -> batch.failed <- batch.failed + 1
   | Ok _ -> ());
  batch.wall_s <- batch.wall_s +. outcome.Response.wall_s;
  let complete = batch.completed >= batch.total in
  if complete then Hashtbl.remove t.batches batch.batch_id;
  complete

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end
