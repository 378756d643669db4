(** The five virtual-function implementation techniques the paper
    evaluates (Sec. 8): the contemporary CUDA baseline, Intel Concord's
    type-tag switches, the SharedOA allocator with CUDA-style dispatch,
    and the two proposed schemes, COAL and TypePointer. *)

type tp_mode =
  | Prototype  (** The silicon prototype of Sec. 6.3: tag bits are masked
                   out in software at every member reference. *)
  | Hw_mmu     (** The proposed hardware: the MMU ignores tag bits, so
                   member references pay nothing (Accel-Sim runs). *)

type t =
  | Cuda        (** Default allocator, vTable*-chasing dispatch. *)
  | Concord     (** Default allocator, embedded tag + switch dispatch. *)
  | Shared_oa   (** Type-based allocator, vTable*-chasing dispatch. *)
  | Coal        (** Type-based allocator, virtual-range-table lookup. *)
  | Type_pointer of { mode : tp_mode; on_cuda_alloc : bool }
      (** Tagged pointers; [on_cuda_alloc] is the Fig. 11 configuration
          (tags over the default allocator, hardware MMU). *)

val type_pointer : t
(** TypePointer as evaluated on silicon (Sec. 8.1): prototype mode on top
    of SharedOA. *)

val type_pointer_hw : t
(** TypePointer with the hardware MMU, on SharedOA. *)

val type_pointer_on_cuda : t
(** The Fig. 11 configuration: hardware MMU over the default allocator. *)

val all_paper : t list
(** The five silicon configurations of Fig. 6, in the paper's order:
    CUDA, Concord, SharedOA, COAL, TypePointer(prototype). *)

val uses_shared_oa : t -> bool
(** Whether objects are placed by the type-based allocator. *)

val tags_pointers : t -> bool

val strips_in_software : t -> bool
(** True only for the TypePointer prototype. *)

val name : t -> string
(** Short display name ("CUDA", "CON", "SHARD", "COAL", "TP", "TP/CUDA"). *)

val of_string : string -> (t, string) result
(** Parses the short names (case-insensitive); used by the CLI. *)

val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool
