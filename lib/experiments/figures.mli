(** The table of figures: every paper artifact [repro figure]
    regenerates (Tables 1–2, Figs. 1b and 6–12, the Sec. 8.2
    initialization comparison, the TypePointer ablations) and the repo's
    companion series, with how each is measured, exported and rendered.
    The command line, the trajectory JSON that CI diffs against
    [BENCH_main.json], and the tests all read this one list. *)

type source = {
  scale : float;
  j : int;
  cache : bool;
  cache_dir : string option;
  columns : Sweep.column list;
      (** The sweep's columns, as [--alloc] picked them. *)
  progress : string -> unit;
  memo : Sweep.memo;
      (** Shared by every sweep the figures run, the shared one
          included, so a cell two figures read is measured once. *)
  sweep : Sweep.t Lazy.t;
      (** The shared sweep behind Figs. 1b and 6–9 and Tables 1–2,
          built on first use and reused by every figure that reads it. *)
}
(** What a figure is measured from. *)

type output = {
  series : Repro_report.Series.t list;  (** The trajectory's data. *)
  text : string;
      (** What [repro figure] prints: a custom view (Fig. 1b's bar chart,
          Fig. 7's breakdown, the tables, [init], [ablation]) or one
          {!Figview.render_table} per series, separated by a blank line. *)
}
(** One measurement of a figure, read both ways. *)

type t = {
  id : string;
      (** Command-line name: ["1b"], ["table1"], ["6"], …, ["init"],
          ["ablation"], ["dram"], ["tlb"]. *)
  key : string;
      (** Trajectory key: ["fig1b"], ["table1"], ["fig6"], …, ["dram"],
          ["tlb"]. *)
  alloc : bool;  (** [--alloc] applies: the figure reads [source.columns]. *)
  pages : bool;
      (** [--pages] applies: the figure is a view of [source.sweep], the
          one measurement that takes a caller's page policy. *)
  measure : source -> output;
      (** Runs the figure's cells (memo hits excepted) once, and reads
          its series and its text off that one measurement. *)
}

val all : t list
(** In command-line order. Ids and keys are unique. *)

val ids : string list

val find : string -> t option
(** By {!t.id}. *)

val trajectory : scale:float -> (t * output) list -> Repro_obs.Json.t
(** [{"scale": s, "entries": {key: [series…]}}], the shape
    [bench/diff.exe] compares. It holds no wall-clock field, so two runs
    at one scale write byte-identical files. *)
