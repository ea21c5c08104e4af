(** Layered graphs (Definition 4.10) and graph parametrization
    (Section 4.3.1).

    Given a random bipartition (L, R) of the vertices, a good
    [(tau^A, tau^B)] pair and a scale [W], the layered graph stacks
    [k+1] copies of the vertex set.  Layer [t] keeps the matched
    L–R edges whose weight rounds {e up} to [tau^A_t * W]; between
    layers [t] and [t+1] it keeps the unmatched edges, oriented from an
    R-vertex in layer [t] to an L-vertex in layer [t+1], whose weight
    rounds {e down} to [tau^B_t * W].  Vertices that cannot lie on a
    layer-spanning alternating path are filtered out.  The result,
    with first- and last-layer matched edges removed (the graph
    [L'] of Algorithm 4), is bipartite, and its augmenting paths with
    respect to the retained matched edges correspond to strictly
    gainful weighted augmentations of the original graph. *)

type parametrized = {
  side : bool array;  (** [true] = the vertex is in L *)
  graph : Wm_graph.Weighted_graph.t;
  matching : Wm_graph.Matching.t;  (** the current matching M *)
}

val parametrize :
  Wm_graph.Prng.t ->
  Wm_graph.Weighted_graph.t ->
  Wm_graph.Matching.t ->
  parametrized
(** Draw a uniform random bipartition. *)

val parametrize_with :
  side:bool array ->
  Wm_graph.Weighted_graph.t ->
  Wm_graph.Matching.t ->
  parametrized
(** Deterministic parametrization (tests, Lemma 4.12 constructions). *)

type t = {
  base_n : int;
  layer_count : int;  (** [k+1] *)
  lgraph : Wm_graph.Weighted_graph.t;
      (** the graph [L'] on [(k+1) * base_n] vertices: intermediate-layer
          matched edges plus all retained between-layer edges; edge
          weights are the original weights *)
  init : Wm_graph.Matching.t;
      (** [M_(L')]: the intermediate-layer matched edges *)
  pair : Tau.pair;
  scale : float;  (** [W] *)
  side : bool array;  (** the bipartition used, over base vertices *)
}

val vertex_id : base_n:int -> layer:int -> int -> int
(** [vertex_id ~base_n ~layer v] is the id of copy [v^layer]
    (layers are 1-based as in the paper). *)

val base_vertex : base_n:int -> int -> int
(** Project a layered vertex back to the original graph. *)

val layer_of : base_n:int -> int -> int
(** The (1-based) layer a layered vertex lives in. *)

type cache
(** The pair-invariant half of a build — the bipartition-crossing
    matched and unmatched edges with their buckets at one granule, the
    unmatched ones also indexed by down-bucket.  Immutable; share one
    across every pair of a (parametrization, scale), from any number
    of domains. *)

val prepare : Tau.params -> parametrized -> scale:float -> cache

val present : cache -> int list * int list
(** The weight buckets present at the cache's granule, each list
    ascending and distinct: the up-buckets [<= max_granules] of the
    crossing matched edges (candidate [tau^A] entries), and the
    down-buckets in [2 .. max_granules] of the crossing unmatched edges
    (candidate [tau^B] entries).  Read off the cache, with no edge
    scan. *)

val build :
  ?cache:cache -> Tau.params -> parametrized -> Tau.pair -> scale:float -> t
(** Construct [L'] for one [(tau^A, tau^B)] pair and scale [W].
    [cache] (from {!prepare} with the same parametrization and scale)
    skips the per-pair rescan of all base edges; without it one is
    computed on the fly. *)

type built =
  | Graph of t
  | Trivial of int
      (** no between-layer edge survived the filter, so [L'] has no
          augmenting path; the payload is its (X-only) edge count *)

val build_opt :
  ?cache:cache -> Tau.params -> parametrized -> Tau.pair -> scale:float -> built
(** As {!build}, but a pair whose layered graph cannot contain an
    augmenting path returns [Trivial] without materialising the
    O([layer_count * n]) graph and initial matching — the common case
    for enumerated pairs, and the hot-path reason per-pair evaluation
    is allocation-free.  Triviality is decided over the cache's
    down-bucket index, visiting only the unmatched edges in the pair's
    [tau^B] buckets; the ordered edge fill runs only for a [Graph].
    Build counters are updated exactly as {!build} would. *)

val left : t -> int -> bool
(** Bipartition of the layered graph: a layered copy of an L-vertex is
    on the left. *)

val edge_count : t -> int
(** Retained edges — the memory this instance charges. *)

val augmenting_paths :
  t -> Wm_graph.Matching.t -> Wm_graph.Edge.t list list
(** [augmenting_paths t m'] extracts from [m' ∪ init] the alternating
    components that are augmenting paths for [init] (strictly more
    [m']-edges), as ordered layered edge lists. *)
