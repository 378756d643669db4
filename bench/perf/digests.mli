(** The committed seed-42 reference: per workload, each operation's key
    mapped to the digest of the simulated statistics it must produce.
    A run at {!seed} checks every operation it finds here; a mismatch
    is a failed operation. *)

val path : string
(** ["bench/perf/digests.json"], relative to the repository root the
    benchmark runs from. *)

val seed : int
(** 42: the only seed the file holds digests for. *)

val of_stats : Repro_gpu.Stats.t -> string
(** Hex digest of the marshalled [Stats.to_raw]: every field, floats
    exactly. *)

type table = (string * (string * string) list) list
(** Workload name to (operation key, digest) pairs. *)

val load : unit -> table
(** Raises [Failure] or [Sys_error] when the file is missing or
    malformed. *)

val check :
  table -> seed:int -> workload:string -> (string * string) list -> string list * int
(** Check a run's (key, digest) pairs: one message per key whose
    committed digest differs, and how many keys the table lacks. Checks
    nothing unless [seed] is {!seed}. *)

val merge : table -> workload:string -> (string * string) list -> table
(** Add or replace one workload's digests. *)

val save : table -> unit
