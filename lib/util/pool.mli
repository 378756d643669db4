(** The process's compute domains: one budget, a bounded worker pool
    with deterministic result ordering, and a scoped helper domain that
    runs jobs behind its caller.

    Every domain the library spawns goes through this module, which
    counts the live ones: the main domain, {!map} workers, {!spawn}ed
    daemon workers and {!Helper} domains. {!map} and {!spawn} spawn
    what they are asked for; a helper is spawned only while the count is
    below {!available_workers}, so it only ever takes an idle core.

    {!map}'s work items are pulled from a shared atomic counter, so
    completion order is arbitrary, but every result is written back to
    its input index: the output array always lines up with the input
    array regardless of scheduling. One item raising is captured as
    [Error] in its own slot and never disturbs its siblings. *)

val available_workers : unit -> int
(** [Domain.recommended_domain_count ()]: the budget. *)

val live_domains : unit -> int
(** Compute domains alive now: the main domain plus every domain spawned
    through this module and not yet joined. *)

val spawn : (unit -> 'a) -> 'a Domain.t
(** [Domain.spawn], counted against the budget until {!join}. *)

val join : 'a Domain.t -> 'a
(** [Domain.join] for a domain from {!spawn}. *)

val map : jobs:int -> f:('a -> 'b) -> 'a array -> ('b, exn) result array
(** [map ~jobs ~f inputs] applies [f] to every input on at most [jobs]
    domains (clamped to [1 .. length inputs]). With [jobs = 1] everything
    runs sequentially on the calling domain — bit-for-bit the behaviour
    of [Array.map f inputs], with exceptions captured per element. *)

(** A progress mark one domain raises and another waits on: how a
    producer hands items to a consumer running behind it. The waiter
    spins briefly, then sleeps; raising the mark wakes it. *)
module Feed : sig
  type t

  exception Aborted

  val create : unit -> t
  (** Mark 0. *)

  val publish : t -> int -> unit
  (** Raise the mark to [n] (never lower it). Everything the publisher
      wrote before is visible to a waiter that sees [n]. *)

  val abort : t -> unit
  (** Release the waiter for good: the producer stopped. *)

  val await : t -> int -> unit
  (** Return once the mark exceeds [i]; raise {!Aborted} if the feed
      was aborted first. *)
end

(** A helper domain bound to a dynamic scope on the calling domain. It
    runs submitted jobs in submission order, one at a time, while the
    caller goes on. It is spawned at the scope's first {!current} that
    asks for one and finds the budget open, and joined when the scope
    exits; no helper outlives its scope, and none idles between
    scopes. *)
module Helper : sig
  type t

  val scope : (unit -> 'a) -> 'a
  (** [scope f] runs [f] with a helper scope open on this domain. On a
      normal return every submitted job is drained first (a job's
      exception is re-raised here); on an exception the helper is joined
      and [f]'s exception propagates. A scope inside an open scope uses
      the outer one. *)

  val current : ?spawn:bool -> unit -> t option
  (** The open scope's helper. A scope that has none yet spawns it when
      [spawn] holds (the default) and the budget allows. [None] outside a
      scope, or when no helper is running and none is spawned: the
      caller then does the work inline. *)

  val submit : t -> (unit -> unit) -> unit
  (** Queue a job. Blocks while one job runs and another already waits,
      so at most two are in flight. Re-raises an earlier job's
      exception; after one fails, later jobs are dropped. *)

  val drain : t -> unit
  (** Wait until every submitted job has run; re-raise the first job
      exception. A no-op once the scope has exited. *)
end
