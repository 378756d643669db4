type batch = {
  batch_id : string;
  total : int;
  mutable summary : Response.summary;
  mutable trace : int;
  mutable started_at : float;
}

type t = {
  id : int;
  fd : Unix.file_descr;
  buf : Buffer.t;
  batches : (string, batch) Hashtbl.t;
  mutable closed : bool;
}

let create ~id fd =
  {
    id;
    fd;
    buf = Buffer.create 1024;
    batches = Hashtbl.create 4;
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

let send t line =
  if not t.closed then begin
    let bytes = Bytes.unsafe_of_string (line ^ "\n") in
    let len = Bytes.length bytes in
    let rec write_all off =
      if off < len then begin
        let n = Unix.write t.fd bytes off (len - off) in
        write_all (off + n)
      end
    in
    try write_all 0 with Unix.Unix_error _ | Sys_error _ -> t.closed <- true
  end

let begin_batch t ~id ~total =
  let batch =
    {
      batch_id = id;
      total;
      summary = Response.no_jobs;
      trace = 0;
      started_at = 0.;
    }
  in
  Hashtbl.replace t.batches id batch;
  batch

let record_done t batch outcome =
  batch.summary <- Response.count batch.summary outcome;
  let complete = batch.summary.Response.jobs >= batch.total in
  if complete then Hashtbl.remove t.batches batch.batch_id;
  complete

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end
