(** The assembled translation model: one {!Page_table}, per-SM L1 TLBs,
    a shared L2 TLB, and the latency schedule the memory path charges.

    The replay path calls {!lookup} once per coalesced sector and maps
    the returned code to a latency through an array it precomputes from
    {!latency_of_code} — no floats or variants cross this boundary. *)

type config = {
  l1_sets : int;
  l1_ways : int;
  l2_sets : int;
  l2_ways : int;
  l2_latency : float;            (** Charged on an L2 TLB hit. *)
  walk_latency_per_level : float;(** Charged per radix level on a walk,
                                     on top of [l2_latency]. *)
}

val default_config : config
(** 32-entry L1 TLB per SM (8×4), 512-entry shared L2 (128×4),
    30-cycle L2 TLB hit, 60 cycles per walked level. *)

type t

val create : ?config:config -> n_sms:int -> table:Page_table.t -> unit -> t

val hit_l1 : int
(** Lookup code 0: L1 TLB hit (free — translation is pipelined). *)

val hit_l2 : int
(** Lookup code 1: L1 miss, L2 TLB hit. *)

val walk_base : int
(** Codes [walk_base + levels] are full walks of [levels] radix levels;
    unmapped sectors walk {!Page_table.max_levels} levels and are never
    cached. *)

val max_code : int

val lookup : t -> sm:int -> sector:int -> int
(** Translate one sector on SM [sm], updating TLB state. Returns a code
    in [0, max_code]. Allocation-free. *)

val latency_of_code : t -> int -> float
(** Cycles charged for a lookup outcome. *)

val flush_l1s : t -> unit
(** Kernel boundary: per-SM L1 TLBs flush with the L1 data caches; the
    shared L2 TLB persists across launches. *)

val flush : t -> unit
(** Full flush (device reset or page-table rebuild). *)

val table : t -> Page_table.t

val l1_tlbs : t -> Tlb.t array
(** The per-SM L1 TLBs, indexed by SM ({!n_sms} of them). *)

val l2_tlb : t -> Tlb.t
(** The shared L2 TLB. {!lookup} tries the SM's L1 TLB, then this one,
    before charging a walk; the fused replay loop inlines that sequence
    over the two levels' {!Tlb.Raw} state. *)

val config : t -> config
val n_sms : t -> int
