(** A counter table: the one place a set of counters is declared.

    Each {!declare} names a counter once — a stable dotted id, the key
    it travels under on the wire, a kind, units, whether it reads back
    as an int or a float, and whether a decoder must find it — and
    assigns it the next slot of a flat [float array]. A {!family} is one
    declaration for a slug-indexed run of slots. The owner of the table
    keeps its values in such an array (integers are exact up to 2{^53}),
    so every create, reset, sum, copy, read and codec is one loop over
    the table instead of one line per counter.

    Two tables exist: [Repro_gpu.Stats]' simulator counters (read
    through [Repro_obs.Metric]) and [Repro_obs.Svc_metrics]' service
    counters. [Repro_obs.Json] holds the codec both share. *)

type kind = Counter | Gauge
type value = Int of int | Float of float

type entry = private {
  id : string;  (** Dotted id, e.g. ["l1.hits"]. *)
  key : string;
      (** Wire key: the JSON field of a scalar, or a family member's slug. *)
  kind : kind;
  units : string;
  float : bool;  (** Reads back as [Float], else as [Int]. *)
  strict : bool;  (** A decoder rejects input that lacks [key]. *)
  slot : int;  (** Index in the value array; [-1] for a {!computed} entry. *)
  read : float array -> float;
}

type family = private {
  family_key : string;  (** The JSON field holding the slug-keyed object. *)
  first : int;  (** Slot of member 0; member [i] is at [first + i]. *)
  members : entry array;
}

type field = Scalar of entry | Family of family

type t

val create : unit -> t

val declare :
  t -> ?key:string -> ?float:bool -> ?strict:bool -> kind -> string -> string ->
  entry
(** [declare t kind id units] takes the next slot. [key] defaults to
    [id]; [float] and [strict] to [false]. *)

val family :
  t -> ?key:string -> ?float:bool -> string -> string -> string list -> family
(** [family t id units slugs] takes one slot per slug, in order; member
    [i] has id [id ^ "." ^ slug] and key [slug], and is never strict.
    [key] defaults to [id]. *)

val computed : ?float:bool -> string -> string -> (float array -> float) -> entry
(** A value derived from a table's slots. It has no slot of its own and
    belongs to no table, so no codec or sum sees it. *)

val fields : t -> field list
(** Declaration order: the order of the wire object's keys. *)

val entries : t -> entry list
(** Every stored entry, family members expanded, in slot order. *)

val size : t -> int

val zero : t -> float array
(** A fresh value array, every slot zero. *)

val value : entry -> float array -> value
