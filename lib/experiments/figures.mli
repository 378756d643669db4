(** The table of figures: every figure [repro figure] regenerates, with
    how it is measured, exported and rendered. The command line, the
    trajectory JSON that CI diffs against [BENCH_main.json], and the
    tests all read this one list. *)

type source = {
  scale : float;
  j : int;
  cache : bool;
  cache_dir : string option;
  columns : Sweep.column list;
      (** The sweep's columns, as [--alloc] picked them. *)
  progress : string -> unit;
  sweep : Sweep.t Lazy.t;
      (** The shared sweep behind Figs. 1b and 6–9, built on first use
          and reused by every figure that reads it. *)
}
(** What a figure is measured from. *)

type t = {
  id : string;  (** Command-line name: ["1b"], ["6"], …, ["dram"], ["tlb"]. *)
  key : string;
      (** Trajectory key: ["fig1b"], ["fig6"], …, ["dram"], ["tlb"]. *)
  alloc : bool;  (** [--alloc] applies: the figure reads [source.columns]. *)
  pages : bool;
      (** [--pages] applies: the figure is a view of [source.sweep], the
          one measurement that takes a caller's page policy. *)
  series : source -> Repro_report.Series.t list;
  render : (Sweep.t -> string) option;
      (** A custom text view of the shared sweep (Fig. 1b's bar chart,
          Fig. 7's breakdown table). Without one, the figure renders as
          its series' tables. *)
}

val all : t list
(** In command-line order. Ids and keys are unique. *)

val ids : string list

val find : string -> t option
(** By {!t.id}. *)

val text : t -> source -> Repro_report.Series.t list -> string
(** The figure's text: its custom renderer, or one
    {!Figview.render_table} per series, separated by a blank line. *)

val trajectory :
  scale:float -> (t * Repro_report.Series.t list) list -> Repro_obs.Json.t
(** [{"scale": s, "entries": {key: [series…]}}], the shape
    [bench/diff.exe] compares. It holds no wall-clock field, so two runs
    at one scale write byte-identical files. *)
