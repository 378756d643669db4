type tp_mode =
  | Prototype
  | Hw_mmu

type t =
  | Cuda
  | Concord
  | Shared_oa
  | Coal
  | Type_pointer of { mode : tp_mode; on_cuda_alloc : bool }

let type_pointer = Type_pointer { mode = Prototype; on_cuda_alloc = false }

let type_pointer_hw = Type_pointer { mode = Hw_mmu; on_cuda_alloc = false }

let type_pointer_on_cuda = Type_pointer { mode = Hw_mmu; on_cuda_alloc = true }

let all_paper = [ Cuda; Concord; Shared_oa; Coal; type_pointer ]

let uses_shared_oa = function
  | Shared_oa | Coal -> true
  | Type_pointer { on_cuda_alloc; _ } -> not on_cuda_alloc
  | Cuda | Concord -> false

let tags_pointers = function
  | Type_pointer _ -> true
  | Cuda | Concord | Shared_oa | Coal -> false

let strips_in_software = function
  | Type_pointer { mode = Prototype; _ } -> true
  | Type_pointer { mode = Hw_mmu; _ } | Cuda | Concord | Shared_oa | Coal -> false

let name = function
  | Cuda -> "CUDA"
  | Concord -> "CON"
  | Shared_oa -> "SHARD"
  | Coal -> "COAL"
  | Type_pointer { on_cuda_alloc = true; _ } -> "TP/CUDA"
  | Type_pointer { mode = Hw_mmu; _ } -> "TP-HW"
  | Type_pointer { mode = Prototype; _ } -> "TP"

let of_string s =
  match String.lowercase_ascii s with
  | "cuda" -> Ok Cuda
  | "con" | "concord" -> Ok Concord
  | "shard" | "sharedoa" | "shared-oa" | "shared_oa" -> Ok Shared_oa
  | "coal" -> Ok Coal
  | "tp" | "typepointer" -> Ok type_pointer
  | "tp-hw" | "tp_hw" -> Ok type_pointer_hw
  | "tp/cuda" | "tp-cuda" | "tp_on_cuda" -> Ok type_pointer_on_cuda
  | other -> Error (Printf.sprintf "unknown technique %S" other)

let pp ppf t = Format.pp_print_string ppf (name t)

let equal a b =
  match (a, b) with
  | Cuda, Cuda | Concord, Concord | Shared_oa, Shared_oa | Coal, Coal -> true
  | Type_pointer x, Type_pointer y -> x.mode = y.mode && x.on_cuda_alloc = y.on_cuda_alloc
  | (Cuda | Concord | Shared_oa | Coal | Type_pointer _), _ -> false
