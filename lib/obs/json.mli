(** Minimal JSON values, writer and reader.

    The toolchain has no JSON library, and the exports ({!Sink},
    {!Profile}, [repro --json]) need only this much: a value type, a
    serializer whose floats round-trip exactly (shortest representation
    that parses back to the same IEEE double), and a strict parser for
    reading our own output back in tests and post-processing scripts. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string
      (** Pre-encoded JSON text, emitted verbatim by {!to_string} (also
          under [~pretty]). {!of_string} never produces it and every
          decoder rejects it: it exists so a writer can splice bytes it
          already holds — the result cache's stored run — into a larger
          document without decoding them. *)

val float_repr : float -> string
(** Shortest decimal form that parses back to exactly the same double,
    always with a ['.'] or exponent (also used for CSV cells). *)

val to_string : ?pretty:bool -> t -> string
(** Compact by default; [~pretty:true] indents with two spaces and ends
    with a newline. Floats always carry a ['.'] or exponent so they parse
    back as [Float]; NaN and infinities become [null]. *)

val of_string : string -> (t, string) result
(** Strict parse of a complete JSON document. [Float]/[Int] distinction
    follows the lexical form: a number with a fraction or exponent is a
    [Float]. *)

(** {2 Accessors} — all total, [None] on a type mismatch. *)

val member : string -> t -> t option
(** Field of an [Obj]. *)

val list_opt : t -> t list option

val string_opt : t -> string option

val int_opt : t -> int option

val float_opt : t -> float option
(** Accepts [Int] too (JSON numbers without a fraction part). *)

val of_counters : Repro_util.Counter_table.t -> float array -> t
(** A counter table's values as an object in declaration order: each
    scalar under its wire key (an [Int] or a [Float], as declared), each
    family as an object keyed by member slug with zero members omitted.
    Floats round-trip exactly through {!Decode.counters}. *)

(** {2 Decoders} — structure-directed readers with path-tracked errors.

    The wire protocol ({!Repro_exec.Request}/[Response]) decodes client
    messages with these: a failed decode reports the offending field by
    its full path (["jobs[2].scale: expected a number, got string"]),
    which the daemon echoes back verbatim, so a misbehaving client learns
    exactly which field it got wrong. *)

module Decode : sig
  type 'a decoder = t -> 'a
  (** Decoders raise internally; only {!run} exposes the error. *)

  val run : 'a decoder -> t -> ('a, string) result
  (** Apply a decoder; [Error] carries ["path: message"] where the path
      spells the offending field ([jobs[2].scale]) or [$] at the root. *)

  val fail : string -> 'a
  (** Fail the surrounding {!run} with [message] at the current path. *)

  val string : string decoder
  val int : int decoder
  val bool : bool decoder

  val float : float decoder
  (** Accepts [Int] (JSON numbers without a fraction part). *)

  val field : string -> 'a decoder -> 'a decoder
  (** Required object field; missing or mistyped fields report the
      field's name in the error path. *)

  val field_opt : string -> 'a decoder -> 'a option decoder
  (** [None] when the field is absent or [Null]. *)

  val field_default : string -> 'a decoder -> 'a -> 'a decoder
  (** Like {!field_opt} with a default for absent/[Null]. *)

  val list : 'a decoder -> 'a list decoder
  (** Element errors report their index ([...[2]...]). *)

  val obj : 'a decoder -> (string * 'a) list decoder
  (** All fields of an object through one value decoder. *)

  val map : ('a -> 'b) -> 'a decoder -> 'b decoder

  val const : 'a -> 'a decoder

  val value : t decoder
  (** The raw JSON subtree. *)

  val counters : Repro_util.Counter_table.t -> float array -> unit decoder
  (** Read {!of_counters}' form into the given value array. A strict
      scalar must be present; any other absent key leaves its slots at
      zero. A slug outside its family fails with the family's key in
      the path. Of duplicate keys the first is read, unknown keys are
      skipped, and of several faults the first in the table's
      declaration order is reported. *)
end
