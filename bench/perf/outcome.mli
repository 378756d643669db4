(** What one workload's run reports: the shape a workload child hands
    its parent, [perf.exe --out] writes and [compare.exe] reads. *)

type t = {
  workload : string;
  seed : int;
  trace : bool;
  attempted : int;  (** Operations attempted: sweep cells or requests. *)
  failed : int;
      (** Operations that failed or whose output a correctness check
          rejected. *)
  problems : string list;  (** One line per failed check. *)
  metrics : (string * float) list;  (** Registry names ({!Metrics}). *)
  notes : (string * Repro_obs.Json.t) list;
      (** Context printed beside the metrics: sample counts, the tail
          percentile, pass counts, the per-span self-time table. *)
  digests : (string * string) list;
      (** Operation key (sweep cell or job key) to the digest of its
          simulated statistics. *)
}

val correct : t -> bool
(** No failed operation and no failed check. *)

val metric_fields :
  ?prefix:string -> (string * float) list -> (string * Repro_obs.Json.t) list
(** [("<prefix><name>", {"value": v, "unit": "<registry unit>"})], one
    per metric. *)

val to_json : t -> Repro_obs.Json.t

val of_json : Repro_obs.Json.t -> (t, string) result

val crashed : workload:string -> seed:int -> trace:bool -> string -> t
(** A run that produced no outcome: one attempted, one failed. *)
