(** One connected serve client: line framing over its socket, response
    writes, and per-batch progress accounting.

    Sessions are owned by the daemon's event thread — every read, write
    and accounting update happens there, so the type needs no lock. The
    scheduler's worker domains never touch a session; they hand finished
    work back to the event thread ({!Server}), which fans it out. *)

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
      (** Trace id of the submit request that opened the batch (0 when
          the daemon runs without observability). *)
  mutable started_at : float;
      (** [Unix.gettimeofday] at submit decode — the end-to-end request
          span for a batch closes at [Batch_done] (0 when off). *)
}

type t = {
  id : int;             (** Dense session number (scheduler queue key). *)
  fd : Unix.file_descr;
  buf : Buffer.t;       (** Bytes received but not yet newline-framed. *)
  batches : (string, batch) Hashtbl.t;  (** In-flight batches by id. *)
  on_send : (bytes:int -> t0:float -> dur:float -> unit) option;
      (** Observability tap on {!send}: bytes written and encode time
          ([t0] start, [dur] seconds spent in [Response.to_line]). [None]
          keeps {!send} on its historical path — no clock reads. *)
  mutable closed : bool;
}

val create :
  ?on_send:(bytes:int -> t0:float -> dur:float -> unit) ->
  id:int -> Unix.file_descr -> t

val max_line_bytes : int
(** The longest request line accepted: 1 MiB (1 048 576 bytes) before
    its newline. A fixed protocol limit (PROTOCOL.md), not a setting. *)

val feed : t -> string -> (string list, string list) result
(** Append received bytes and return the complete lines they finish, in
    order, stripped of their newline (and any ['\r']). Only the new
    bytes are scanned. [Error lines] when a line exceeds
    {!max_line_bytes} — as soon as the pending bytes pass the cap,
    without waiting for the newline: [lines] are the complete lines
    before it, the pending bytes are dropped, and the caller answers
    with an error and closes the session. *)

val send : t -> Response.t -> unit
(** Write one response line. A write failure (client went away mid-write)
    marks the session {!closed}; the daemon reaps it on its next loop
    turn. No-op on an already-closed session. *)

val begin_batch : t -> id:string -> total:int -> batch

val record_done : t -> batch -> Response.outcome -> bool
(** Fold one finished job into the batch tally; [true] when it was the
    batch's last job (the batch is dropped from the table — the caller
    sends [Batch_done] from the returned counters before dropping its
    reference). *)

val close : t -> unit
(** Close the socket (idempotent). *)
