(** Program-wide GC accounting snapshots.

    Built on [Gc.quick_stat], whose allocation tallies are {e
    program-wide} on OCaml 5 (they include work done by live child
    domains, with the remainder merged when a domain is joined) — so
    deltas taken around a parallel region are comparable across
    [--jobs] settings.  This is deliberately different from
    [Gc.minor_words ()], which reports only the {e calling domain}'s
    allocations and is what the allocation-budget unit tests use to
    assert that a single-domain kernel does not allocate.

    Word counts are reported as integers: [float] minor-word tallies
    are far below 2^62 for any realistic run, and integer fields are
    what {!Ledger} rows and BENCH_v1 reports carry. *)

type snapshot = {
  minor_words : int;
  promoted_words : int;
  major_words : int;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  top_heap_words : int;  (** lifetime peak major-heap size (not a delta) *)
}

val snapshot : unit -> snapshot
(** Current program-wide tallies ([Gc.quick_stat]). *)

val delta : before:snapshot -> snapshot -> snapshot
(** [delta ~before after] subtracts the cumulative tallies;
    [top_heap_words] is carried from [after] (it is a peak, not a
    cumulative count). *)

val since_start : unit -> snapshot
(** Delta against a baseline captured when this module was initialised
    (process start, before any experiment work). *)

val fields : snapshot -> (string * int) list
(** The snapshot as ledger-row fields, in declaration order. *)

val block_json : ledger:Ledger.t -> snapshot -> Json.t
(** The BENCH_v1 top-level ["gc"] block: the snapshot's fields plus the
    per-round aggregate derived from the ledger's ["gc"] section —
    [rounds] (rows labelled ["round"], one per [Main_alg.improve_once])
    and [minor_words_per_round] (their mean [minor_words] delta, the
    round hot path's allocation constant that the bench-diff gate
    pins). *)
