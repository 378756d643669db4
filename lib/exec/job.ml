module W = Repro_workloads
module T = Repro_core.Technique

type t = {
  workload : W.Workload.t;
  technique : T.t;
  params : W.Workload.params;
}

let make workload (params : W.Workload.params) =
  { workload; technique = params.W.Workload.technique; params }

let params ~technique ?alloc ?chunk_objs ?pages ?iterations ~scale ~seed () =
  {
    (W.Workload.default_params technique) with
    W.Workload.scale;
    seed;
    iterations;
    chunk_objs;
    pages;
    (* Naming the technique's own family is the same run as leaving it
       out; [None] keeps the key, and so the cache entry, the same. *)
    alloc =
      (match alloc with
       | Some fam when Repro_core.Alloc_family.is_default technique fam -> None
       | a -> a);
  }

let workload_name t = W.Registry.qualified_name t.workload

let column_name t =
  match t.params.W.Workload.alloc with
  | None -> T.name t.technique
  | Some fam -> Repro_core.Alloc_family.column_name t.technique fam

(* Fig. 10's COAL columns differ only in the chunk size, so it is named
   whenever it is set. *)
let label t =
  match t.params.W.Workload.chunk_objs with
  | None -> Printf.sprintf "%s [%s]" (workload_name t) (column_name t)
  | Some c ->
    Printf.sprintf "%s [%s chunk=%d]" (workload_name t) (column_name t) c

(* [T.name] collapses some TypePointer configurations (e.g. prototype
   mode over the CUDA allocator has no paper short name), so the key
   spells out the full variant. *)
let technique_id = function
  | T.Cuda -> "cuda"
  | T.Concord -> "concord"
  | T.Shared_oa -> "shared_oa"
  | T.Coal -> "coal"
  | T.Type_pointer { mode; on_cuda_alloc } ->
    Printf.sprintf "tp[%s,%s]"
      (match mode with T.Prototype -> "proto" | T.Hw_mmu -> "hw")
      (if on_cuda_alloc then "cuda" else "shared_oa")

let key t =
  let p = t.params in
  Printf.sprintf
    "%s|%s|alloc=%s|scale=%.6g|seed=%d|iters=%s|chunk=%s|config=%s|san=%s|telemetry=%s|pages=%s"
    (workload_name t) (technique_id t.technique)
    (match p.W.Workload.alloc with
     | None -> "default"
     | Some fam -> Repro_core.Alloc_family.name fam)
    p.W.Workload.scale p.W.Workload.seed
    (match p.W.Workload.iterations with
     | None -> "default"
     | Some i -> string_of_int i)
    (match p.W.Workload.chunk_objs with
     | None -> "default"
     | Some c -> string_of_int c)
    (match p.W.Workload.config with None -> "default" | Some _ -> "custom")
    (match p.W.Workload.san with None -> "off" | Some _ -> "on")
    (match p.W.Workload.telemetry with
     | None -> "off"
     | Some c ->
       Printf.sprintf "w=%s,trace=%b,cap=%d"
         (match c.Repro_gpu.Telemetry.window with
          | None -> "off"
          | Some w -> string_of_int w)
         c.Repro_gpu.Telemetry.trace c.Repro_gpu.Telemetry.trace_capacity)
    (match p.W.Workload.pages with
     | None -> "none"
     | Some policy -> Repro_vm.Policy.name policy)

(* Bump whenever the cache entry format or the run's wire form
   ([Run_wire]) changes: old entries become unreachable, not misread. The
   golden cache entry test fails until this moves. *)
let schema_version = "repro-exec-v9"

let hash t = Digest.to_hex (Digest.string (schema_version ^ "\n" ^ key t))

(* Sanitized jobs are never cached: the measurement's real product is
   the mutable checker threaded through params, which a cache hit would
   leave untouched. Telemetry jobs aren't either — window rows and ring
   dumps dwarf the scalar results a cache entry is meant to hold. *)
let cacheable t =
  t.params.W.Workload.config = None
  && t.params.W.Workload.san = None
  && t.params.W.Workload.telemetry = None

let run t = W.Harness.run t.workload t.params

let equal a b = String.equal (key a) (key b)
