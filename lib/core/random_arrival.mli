(** RAND-ARR-MATCHING (Algorithm 2): the [(1/2 + c)]-approximation for
    maximum weighted matching on random-order streams (Theorem 1.1).

    One pass.  On the first [p] fraction of the stream the local-ratio
    algorithm runs normally (potentials evolve and qualifying edges are
    stacked); at the cut, the stack is unwound into the initial matching
    [M0], the potentials are frozen, and a {!Wgt_aug_paths} instance is
    initialised with [M0].  On the remaining stream, (a) edges beating
    the frozen potentials are retained in [T], and (b) every edge is fed
    to WGT-AUG-PATHS.  At the end, [M1] is built from a maximum matching
    of [T] under residual weights plus the stack unwind, [M2] comes from
    WGT-AUG-PATHS, and the heavier is returned. *)

type result = {
  matching : Wm_graph.Matching.t;
  m0_weight : int;  (** weight of the prefix local-ratio matching *)
  m1_weight : int;  (** stack + retained-edge matching (case 2 winner) *)
  m2_weight : int;  (** WGT-AUG-PATHS output (case 3 winner) *)
  stack_size : int;  (** local-ratio stack retained edges *)
  t_size : int;  (** retained above-potential edges *)
  wap : Wgt_aug_paths.result;  (** the inner algorithm's statistics *)
}

val run :
  ?p:float ->
  ?meter:Wm_stream.Space_meter.t ->
  rng:Wm_graph.Prng.t ->
  Wm_stream.Edge_stream.t ->
  result
(** [run ~rng stream] consumes one pass.  [p] defaults to
    [n ln n / (2 m)] clamped to [[0.02, 0.10]] — enough prefix for the
    potentials to settle (the paper's asymptotic [p = 100 / log n])
    while keeping the retained set [T] within the memory budget.  The
    [(1/2 + c)] guarantee holds in expectation when the stream order is
    uniformly random.

    Each run appends [prefix] and [suffix] rows to the
    [core.random_arrival] section of {!Wm_obs.Ledger.default} carrying
    the per-pass-segment peak meter words
    ({!Wm_stream.Space_meter.checkpoint}) and retained-edge counts —
    the per-pass shape of Thm 3.14's space claim.  On a fresh [meter],
    the lifetime peak equals the max over the run's [peak_words]
    rows.  Spans: [core.random_arrival] with children [prefix],
    [suffix], [m1] (the exact solve on [T], entered only when [T] is
    non-empty) and [finalize]. *)

val solve : rng:Wm_graph.Prng.t -> Wm_stream.Edge_stream.t -> Wm_graph.Matching.t
