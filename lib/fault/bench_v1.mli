(** The BENCH_v1 report format, owned in one place.

    A BENCH_v1 report is one JSON object.  Every report carries the
    shared envelope — [schema], [mode], [seed], [jobs], [experiments],
    [micro], [obs], [gc], [histograms], [ledger], [faults],
    [durability], [trace_meta] — built here from the process-wide
    registries ({!Wm_obs.Obs}, {!Wm_obs.Gcstat}, {!Wm_obs.Ledger},
    {!Wm_obs.Trace}, {!Recovery}).  Producers pass in only their
    mode-specific blocks: [bench/main.exe --json] its experiment
    sections and micro-benchmark estimates, [wm_cli serve --report] its
    [serve] and [shard] blocks.

    The schema is declared once, as a value, and {!check} is the one
    validator: [bench/json_check.exe] and the in-process report tests go
    through it; the bench-diff gate reads only the {!schema} tag. *)

val schema : string
(** The schema tag, ["BENCH_v1"]. *)

val report :
  mode:string ->
  seed:int ->
  jobs:int ->
  gc:Wm_obs.Gcstat.snapshot ->
  ?trace_path:string ->
  ?experiments:Wm_obs.Json.t list ->
  ?micro:(string * float) list ->
  ?serve:Wm_obs.Json.t ->
  ?shard:Wm_obs.Json.t ->
  unit ->
  Wm_obs.Json.t
(** The report, with keys in the order listed above and the [serve] and
    [shard] blocks (when given) right after [micro].  [gc] is the
    allocation delta the [gc] block accounts; [trace_path], when given,
    is recorded as [trace_meta.path].  [experiments] and [micro]
    default to empty. *)

val write : string -> Wm_obs.Json.t -> unit
(** [write path report] pretty-prints the report to [path]. *)

val check : Wm_obs.Json.t -> (unit, string) result
(** Validate a document against the BENCH_v1 schema: the shape of every
    block plus the cross-field invariants listed in DESIGN.md §4.1.
    [Error] names the JSON path of the first violation, as in
    ["$.serve.cache: entries exceed capacity"]. *)
