(** One augmentation class (Algorithm 4 / Theorem 4.8): find
    vertex-disjoint augmentations of scale [W].

    For a random bipartition and a family of good [(tau^A, tau^B)]
    pairs, build each layered graph, run the [(1 - delta)] bipartite
    unweighted black box, translate its augmenting paths back to the
    original graph via Lemma 4.11, and keep a vertex-disjoint set of
    strictly gainful augmentations.  Line 13 keeps only the best pair's
    set; here one greedy pass unions the sets of all pairs of the
    class, a sound superset (DESIGN.md §6). *)

type stats = {
  layered_edges : int;  (** total retained edges across layered graphs *)
  layered_edges_max : int;
      (** retained edges of the largest single [(W, tau)]-pair layered
          graph — the peak per-machine load when each pair's instance is
          placed on one MPC machine, which an average over pairs would
          understate *)
  black_box_passes : int;
      (** measured stream passes of the slowest black-box instance —
          instances run in parallel over the same stream, so this is the
          round's pass bill *)
}

val one_augmentations :
  Wm_graph.Weighted_graph.t -> Wm_graph.Matching.t -> Aug.t list
(** The [k = 1] augmentation class solved exactly: every unmatched edge
    whose weight strictly exceeds the matching weight at both endpoints,
    as single-edge augmentations sorted by decreasing gain.  Needs no
    bipartition or rounding, so it is pulled out of the layered-graph
    machinery and swept separately by Algorithm 3. *)

type incidence
(** The unmatched incidences of a matching as a CSR, each vertex's in
    neighbour order, and the {!Layered.view} of the graph and matching.
    Immutable; share one across every class of a round, from any number
    of domains. *)

val incidence :
  Wm_graph.Weighted_graph.t -> Wm_graph.Matching.t -> incidence
(** [incidence g m] for the walks and layered caches of every class run
    against [g] and [m]. *)

val walk_pairs :
  Params.t ->
  Wm_graph.Prng.t ->
  inc:incidence ->
  Layered.parametrized ->
  scale:float ->
  count:int ->
  (Tau.pair -> unit) ->
  unit
(** Tau pairs derived from [count] random alternating walks: sampling
    the pair space proportionally to realisability (only pairs whose
    layered graphs are non-empty can ever contribute, and those are
    exactly the bucket sequences of actual walks).  All walks are drawn
    first; the callback then receives each good walk's pair, newest
    walk first, through a {e scratch} pair of its length that the next
    call overwrites.  A pair two walks capture is presented twice
    ({!candidate_pairs} keeps the first).  Each walk step is one draw
    over the vertex's unmatched incidences, read from [inc], which must
    be [incidence] of [gp]'s graph and matching. *)

type candidates = {
  pairs : Tau.pair list;
      (** the pairs whose [L'] keeps a between-layer edge
          ({!Layered.keeps_y}), in pool order *)
  trivial : int;  (** the pool's other pairs *)
  trivial_edges : int;  (** their (X-only) [L'] edges, summed *)
  trivial_edges_max : int;  (** and the largest *)
}

val candidate_pairs :
  Params.t ->
  Wm_graph.Prng.t ->
  inc:incidence ->
  cache:Layered.cache ->
  Layered.parametrized ->
  scale:float ->
  candidates
(** The tau-pair pool for one scale: homogeneous pairs over the weight
    buckets present in the data ({!Layered.present} of [cache], which
    must be prepared from [gp] at [scale]), walk-sampled pairs, and a
    few uniform draws, deduplicated first-wins in that order and
    truncated to {!Params.tau_budget}.  Each pool pair is split by
    {!Layered.keeps_y} as it arrives: only the non-trivial ones are
    copied out; a trivial one is counted as its build
    ({!Layered.count_trivial}).  Empty when the scale cannot host any
    augmentation. *)

val run :
  ?span_path:string ->
  Params.t ->
  Wm_graph.Prng.t ->
  Wm_graph.Weighted_graph.t ->
  Wm_graph.Matching.t ->
  inc:incidence ->
  scale:float ->
  Aug.t list * stats
(** [run params rng g m ~inc ~scale] returns the class's
    vertex-disjoint augmentations (possibly empty), each strictly
    gainful against [m]; [inc] is [incidence g m].  Two root spans time
    the class: the layered cache and candidate generation under
    [<span_path>/pairs], and every pair's evaluation under
    [<span_path>/eval] (default [span_path] is ["core.aug_class"]).
    [Main_alg] passes its per-scale path, so attribution nests under the
    round whichever pool domain runs the class, and the timer count
    stays bounded by the scales rather than the distinct pairs. *)
