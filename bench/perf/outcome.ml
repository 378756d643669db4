module Json = Repro_obs.Json

type t = {
  workload : string;
  seed : int;
  trace : bool;
  attempted : int;
  failed : int;
  problems : string list;
  metrics : (string * float) list;
  notes : (string * Json.t) list;
  digests : (string * string) list;
}

let correct t = t.failed = 0 && t.problems = []

let unit_of name =
  match Metrics.find name with Some d -> d.Metrics.unit_ | None -> ""

let metric_fields ?(prefix = "") metrics =
  List.map
    (fun (name, v) ->
      (prefix ^ name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String (unit_of name)) ]))
    metrics

let metrics_json metrics = Json.Obj (metric_fields metrics)

let to_json t =
  Json.Obj
    [
      ("workload", Json.String t.workload);
      ("seed", Json.Int t.seed);
      ("trace", Json.Bool t.trace);
      ("correct", Json.Bool (correct t));
      ("attempted", Json.Int t.attempted);
      ("failed", Json.Int t.failed);
      ("problems", Json.List (List.map (fun p -> Json.String p) t.problems));
      ("metrics", metrics_json t.metrics);
      ("notes", Json.Obj t.notes);
      ("digests", Json.Obj (List.map (fun (k, d) -> (k, Json.String d)) t.digests));
    ]

let decoder =
  let open Json.Decode in
  fun j ->
    {
      workload = field "workload" string j;
      seed = field "seed" int j;
      trace = field "trace" bool j;
      attempted = field "attempted" int j;
      failed = field "failed" int j;
      problems = field "problems" (list string) j;
      metrics = field "metrics" (obj (field "value" float)) j;
      notes = field "notes" (obj value) j;
      digests = field "digests" (obj string) j;
    }

let of_json = Json.Decode.run decoder

let crashed ~workload ~seed ~trace message =
  {
    workload;
    seed;
    trace;
    attempted = 1;
    failed = 1;
    problems = [ message ];
    metrics = [];
    notes = [];
    digests = [];
  }
