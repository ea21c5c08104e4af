(** The bench-diff regression gate: compare two BENCH_v1 reports.

    Given a baseline report and a candidate report (both parsed
    {!Wm_obs.Json.t} documents), compare the metrics the harness
    guards — bechamel [ns/run] per micro-benchmark, peak retained
    space, and the work counters of the obs snapshot — against
    {e relative} thresholds, and classify each shared metric as ok,
    regression, or improvement.  The thresholds are fixed: +50% for a
    micro-benchmark's [ns_per_run]; +10% for [space.*] counters; +50%
    for other obs counters, skipping those with a baseline below 16;
    +100% for the ["gc"]-block allocation tallies ([minor_words],
    [major_words], [minor_words_per_round]), skipping tallies below
    65536 words.  Collection counts and heap peaks are reported but
    never gated: they depend on per-domain minor-heap sizing.
    [bench/diff.exe] wraps this into a CLI
    that exits non-zero when any regression is found, which is what the
    [@bench-diff] dune alias (and any CI job diffing a PR's report
    against the base branch's) gates on. *)

type verdict = Ok | Regression | Improvement

type finding = {
  metric : string;  (** e.g. ["micro:T1:random-arrival(n=400)"],
                        ["counter:space.peak_max"] *)
  base : float;
  cand : float;
  rel : float;  (** [(cand - base) / base] *)
  verdict : verdict;
}

val compare_reports :
  base:Wm_obs.Json.t ->
  Wm_obs.Json.t ->
  (finding list, string) result
(** [compare_reports ~base cand] — all shared metrics, in report order (micro benches, then space
    counters, then other counters, then gc-block tallies).  Metrics
    present in only one report are skipped — the gate compares what
    both runs measured.  [Error] when either document is not a
    BENCH_v1 report. *)

val has_regression : finding list -> bool

val render : finding list -> string
(** Human-readable multi-line table of the findings, one per line,
    regressions marked. *)
