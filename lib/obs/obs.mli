(** Lightweight metrics for the matching library.

    A registry holds four kinds of instruments:

    - {e counters}: named, monotonically non-decreasing integers
      (events, items processed, high-water marks via {!set_max});
    - {e timers}: wall-clock phase spans.  Spans nest: closing returns
      to the enclosing span, and a span opened while ["a"] is open is
      recorded under the path ["a/b"].  Every timer additionally
      accumulates its per-span durations into a histogram, so snapshots
      carry p50/p90/p99 latencies, not just totals;
    - {e histograms}: log2-bucketed value distributions ({!observe})
      with count/sum/min/max and interpolated percentiles.  Buckets are
      atomic, so histograms are {e mergeable across domains} by
      construction — concurrent observers produce the bucket-count sum,
      independent of interleaving;
    - {e gauges}: named callbacks sampled at snapshot time, used to
      expose externally-owned state such as a
      [Wm_stream.Space_meter.t]'s current and peak values.

    Every instrument lives in a registry; {!default} is the process-wide
    registry the library instruments itself against, so that callers get
    observability without threading a handle through every API.  The
    whole registry serialises to {!Json.t} with no dependencies beyond
    [unix] (for {!now_ns}).

    {b Name hygiene.}  Instrument names must not contain ['/'] — that
    character is reserved for span nesting paths, and a name like
    ["a/b"] would collide with span ["b"] nested under ["a"] in
    snapshots.  Registration raises [Invalid_argument] on such names.

    {b Tracing.}  When {!Trace} is enabled, {!span_open}/{!span_close}
    additionally emit begin/end trace events, so span instrumentation
    doubles as the structured-trace source.

    {b Domain safety.}  Registries are safe to use from multiple
    domains concurrently: counters, histogram buckets and timer
    accumulators are atomics ({!set_max} is a CAS loop, so concurrent
    high-water raises are never lost), instrument interning and gauge
    registration are mutex-protected, and the open-span stack is
    {e per-domain} ([Domain.DLS]) — a span opened on a domain must be
    closed on the same domain, nesting paths are domain-local, and
    closed durations merge into the shared timer table at {!span_close}
    time, so {!to_json} snapshots see every domain's finished spans.
    For work fanned out through [Wm_par.Pool], use {!with_span_root}
    with an explicit path: it records under that exact path on every
    domain, so attribution does not depend on which domain ran the
    task. *)

type t
(** A registry. *)

type counter

type histogram

val create : unit -> t
(** A fresh, empty registry. *)

val default : t
(** The process-wide registry used by the library's own
    instrumentation.  Counter names are documented in DESIGN.md §4. *)

(** {1 Counters} *)

val counter : t -> string -> counter
(** [counter reg name] returns the counter registered under [name],
    creating it at zero on first use.  Counters are interned: repeated
    calls with the same name return the same counter. *)

val incr : counter -> unit

val add : counter -> int -> unit
(** Raises [Invalid_argument] on negative increments — counters are
    monotone. *)

val set_max : counter -> int -> unit
(** [set_max c v] raises [c] to [v] if [v] is larger (high-water-mark
    counters stay monotone).  Implemented as a compare-and-swap loop so
    racing raises from several domains keep the true maximum. *)

val value : counter -> int

val counter_value : t -> string -> int
(** [counter_value reg name] is the current value, or [0] when [name]
    was never registered. *)

(** {1 Histograms} *)

val histogram : t -> string -> histogram
(** [histogram reg name] returns the histogram registered under [name],
    creating it empty on first use.  Interned like counters. *)

val observe : histogram -> int -> unit
(** Record one value.  Values land in log2 buckets (bucket 0 holds
    [v <= 0]; bucket [i >= 1] holds [2^(i-1) .. 2^i - 1]); count, sum,
    min and max are tracked exactly.  Safe from any domain. *)

val percentile : histogram -> float -> float
(** [percentile h p] (with [p] in [0..1]) estimates the [p]-quantile by
    linear interpolation inside the covering log2 bucket, clamped to
    the observed [min, max].  [0.0] when empty.  The estimate is a pure
    function of the bucket counts, so it is invariant under observation
    order and domain count. *)

(** {1 Timers} *)

val now_ns : unit -> int
(** Wall-clock nanoseconds since the epoch (microsecond-granular). *)

val span_open : t -> string -> unit
(** Open a phase span on the calling domain.  Nested opens record under
    ["outer/inner"]; the nesting stack is per-domain. *)

val span_close : t -> unit
(** Close the innermost span opened on the calling domain, accumulating
    its wall-clock duration.  Raises [Invalid_argument] when the calling
    domain has no open span. *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** [with_span reg name f] runs [f] inside a span, closing it even when
    [f] raises. *)

val with_span_root : t -> string -> (unit -> 'a) -> 'a
(** [with_span_root reg path f] runs [f] inside a span recorded under
    exactly [path], ignoring the calling domain's ambient span stack, so
    attribution is stable whether [f] runs inline or on a pool worker
    domain.  Exception-safe. *)

(** {1 Gauges} *)

val gauge : t -> string -> (unit -> int) -> unit
(** [gauge reg name read] registers (or re-registers) a sampling
    callback evaluated at {!to_json} time. *)

(** {1 Snapshots} *)

val to_json : t -> Json.t
(** [{"counters": {..},
     "timers": {name: {"total_ns", "count", "p50_ns", "p90_ns", "p99_ns"}},
     "gauges": {..},
     "histograms": {name: {"count", "sum", "min", "max",
                           "p50", "p90", "p99",
                           "buckets": [[lo, count], ..]}}}]
    with names sorted for stable diffs.  Histogram [buckets] lists only
    non-empty buckets, as [[inclusive-lower-bound, count]] pairs in
    increasing order.  Open spans are not included until closed. *)

val reset : t -> unit
(** Zero all counters, timers and histograms and drop the calling
    domain's open spans.  Gauge registrations survive (their backing
    state is caller-owned). *)
