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
    gainful weighted augmentations of the original graph.

    [L'] is built on the endpoints of its edges only, renumbered in
    increasing layered id, so a build costs O(k + |L'|) however large
    the base graph; {!t.ids} maps its vertices back. *)

type view
(** The matched and unmatched edges of a graph and matching as flat
    arrays — the round-invariant input of {!prepare}.  Immutable; share
    one across every class of a round, from any number of domains. *)

val view : Wm_graph.Weighted_graph.t -> Wm_graph.Matching.t -> view

type parametrized = {
  side : bool array;  (** [true] = the vertex is in L *)
  graph : Wm_graph.Weighted_graph.t;
  matching : Wm_graph.Matching.t;  (** the current matching M *)
  view : view;  (** [view graph matching] *)
}

val parametrize : Wm_graph.Prng.t -> view -> parametrized
(** Draw a uniform random bipartition of the view's graph. *)

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
      (** the graph [L'] on the endpoints of its edges: intermediate-layer
          matched edges plus all retained between-layer edges, with the
          original weights.  Vertex [x < Array.length ids] is the
          layered vertex [ids.(x)]; a vertex past them is an isolated
          left sentinel, present when some left layered copy has no
          retained edge *)
  init : Wm_graph.Matching.t;
      (** [M_(L')]: the intermediate-layer matched edges *)
  ids : int array;
      (** the layered ids ({!vertex_id}) of [lgraph]'s non-sentinel
          vertices, ascending *)
  pair : Tau.pair;
  scale : float;  (** [W] *)
  side : bool array;  (** the bipartition used, over base vertices *)
}

val vertex_id : base_n:int -> layer:int -> int -> int
(** [vertex_id ~base_n ~layer v] is the id of copy [v^layer]
    (layers are 1-based as in the paper). *)

val base_vertex : base_n:int -> int -> int
(** Project a layered vertex back to the original graph. *)

type cache
(** The pair-invariant half of a build: the bipartition-crossing
    matched edges grouped by up-bucket, and the crossing unmatched
    edges grouped by (down-bucket, key of the R end, key of the L end),
    where a vertex's key is the up-bucket of its crossing matched edge
    or a distinct free key.  Immutable; share one across every pair of
    a (parametrization, scale), from any number of domains. *)

val prepare : Tau.params -> parametrized -> scale:float -> cache

val present : cache -> int list * int list
(** The weight buckets present at the cache's granule, each list
    ascending and distinct: the up-buckets [<= max_granules] of the
    crossing matched edges (candidate [tau^A] entries), and the
    down-buckets in [2 .. max_granules] of the crossing unmatched edges
    (candidate [tau^B] entries).  Read off the cache, with no edge
    scan. *)

val build : Tau.params -> parametrized -> Tau.pair -> scale:float -> t
(** Construct [L'] for one [(tau^A, tau^B)] pair and scale [W]: a fresh
    {!prepare}, then the same construction as {!build_opt}'s [Graph]. *)

type built =
  | Graph of t
  | Trivial of int
      (** no between-layer edge survived the filter, so [L'] has no
          augmenting path; the payload is its (X-only) edge count *)

val build_opt : cache -> Tau.pair -> built
(** [L'] for one pair at the cache's parametrization and scale, in
    O(k + |L'|) plus a few radix passes over [L']'s endpoints.  A pair
    is [Trivial] iff no gap [t] has a crossing unmatched edge group
    keyed (tau^B_t, R key kept in layer [t], L key kept in layer
    [t+1]) — O(k) lookups, with the X count summed from per-bucket
    group sizes and nothing allocated but the result.  A [Graph] is
    built from the kept groups alone: X edges layer-major in reverse
    cache order, then Y edges in reverse (edge, gap) discovery order.
    Build counters are updated exactly as {!build} would. *)

val left : t -> int -> bool
(** Bipartition of the layered graph: a layered copy of an L-vertex,
    and the sentinel, are on the left. *)

val edge_count : t -> int
(** Retained edges — the memory this instance charges. *)

val find_edge : t -> int -> int -> Wm_graph.Edge.t option
(** [find_edge t x y] is the retained edge between the layered vertices
    [x] and [y] ({!vertex_id}s), with layered endpoints. *)

val augmenting_paths :
  t -> Wm_graph.Matching.t -> Wm_graph.Edge.t list list
(** [augmenting_paths t m'] extracts from [m' ∪ init] the alternating
    components that are augmenting paths for [init] (strictly more
    [m']-edges), as ordered edge lists over layered ids. *)
