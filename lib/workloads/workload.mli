(** The workload interface: one record per application of Table 2.

    A workload builds a {!Repro_core.Runtime.t} under any technique
    (setup — allocation, graph/grid construction — is untimed, matching
    the paper, which excludes initialization), then runs a fixed number
    of compute iterations, each a sequence of kernel launches. The same
    code runs under every technique, so functional results must agree
    bit-for-bit; {!Harness} checks that. *)

type params = {
  technique : Repro_core.Technique.t;
  alloc : Repro_core.Alloc_family.t option;
      (** Allocator-family override; [None] = the technique's paper
          default ({!Repro_core.Alloc_family.default_for}). *)
  scale : float;
      (** Object-count multiplier over the workload's reduced default
          (1.0 ≈ 1/32 of the paper's sizes; see EXPERIMENTS.md). *)
  config : Repro_gpu.Config.t option;  (** GPU override. *)
  chunk_objs : int option;             (** SharedOA initial region size. *)
  iterations : int option;             (** Override compute iterations. *)
  seed : int;
  san : Repro_san.Checker.t option;
      (** Sanitizer instance threaded through the runtime ([repro check]
          and the mutation self-tests; [None] for measurement runs). *)
  telemetry : Repro_gpu.Telemetry.config option;
      (** Cycle-resolved telemetry (windowed sampling and/or event
          tracing); [None] keeps the replay loop on its untouched
          zero-allocation path. *)
  pages : Repro_vm.Policy.t option;
      (** Address-translation page-size policy; [None] (the default)
          models no translation — the timing is exactly the
          untranslated model's. *)
}

val default_params : Repro_core.Technique.t -> params

val default_seed : int
(** The input seed of every surface that is given none (42): the CLI's
    [--seed], the wire's absent [seed] and {!default_params}. *)

val default_scale : float
(** The repo-wide default sweep scale (0.25), shared by [repro sweep],
    the wire protocol's absent-[scale] default and the CLI help — one
    documented constant so every bare surface runs the same job. *)

type instance = {
  rt : Repro_core.Runtime.t;
  iterations : int;
  run_iteration : int -> unit;  (** Launch iteration [i]'s kernels. *)
  result : unit -> int;
      (** Workload-level functional result (e.g. total population, sum of
          ranks) — checked for equality across techniques on top of the
          heap checksum. *)
}

type t = {
  name : string;          (** Paper's short name ("TRAF", "GOL", ...). *)
  suite : string;         (** "Dynasoar", "GraphChi-vE", "GraphChi-vEN", "RAY". *)
  description : string;
  paper_objects : int;    (** Table 2's object count, for reference. *)
  paper_types : int;
  build : params -> instance;
}

val scaled : params -> int -> int
(** [scaled params n] applies the scale factor to a default count,
    keeping at least one. *)
