(** Graph and workload generators.

    Every generator takes an explicit {!Prng.t} so that experiments are
    reproducible.  The [paper_*] constructors are the worked examples of
    the paper (Figures 1 and 2 and the 4-cycle of Section 1.1.2) and are
    used by unit tests and the figure benches. *)

type weight_dist =
  | Unit_weight  (** every edge has weight 1 (unweighted instances) *)
  | Uniform of int * int  (** uniform integer in [lo, hi] *)
  | Geometric_classes of int
      (** weight [2^i] with [i] uniform in [0, classes) — the paper's
          weight-class structure *)
  | Polynomial of int  (** uniform in [1, n^k] for an [n]-vertex graph *)

val draw_weight : Prng.t -> n:int -> weight_dist -> int
(** Sample one weight. *)

(** {1 Random families} *)

val gnp : Prng.t -> n:int -> p:float -> weights:weight_dist -> Weighted_graph.t
(** Erdős–Rényi [G(n,p)] with sampled weights. *)

val gnm : Prng.t -> n:int -> m:int -> weights:weight_dist -> Weighted_graph.t
(** Uniform graph with exactly [m] edges (requires [m <= n(n-1)/2]). *)

val random_bipartite :
  Prng.t -> left:int -> right:int -> p:float -> weights:weight_dist -> Weighted_graph.t
(** Random bipartite graph; vertices [0..left-1] on the left side and
    [left..left+right-1] on the right. *)

val power_law_bipartite :
  Prng.t ->
  left:int ->
  right:int ->
  edges:int ->
  exponent:float ->
  weights:weight_dist ->
  Weighted_graph.t
(** Bipartite graph with Zipf-distributed right-side degrees (exponent
    [> 1]): the skewed popularity structure of real assignment
    workloads (ad auctions, job markets).  Draws approximately [edges]
    distinct edges (fewer if the space saturates). *)

(** {1 Scale tier}

    Streaming generators for the million-edge performance tier: each
    materialises its edges directly into flat endpoint/weight arrays
    and builds the CSR through the trusted
    {!Weighted_graph.of_flat} constructor — no intermediate edge
    lists and no Hashtbl dedup passes, so generation is O(m) time and
    O(m) ints of working set.  Uniqueness of edges holds by
    construction (per-vertex draws are deduplicated against an
    epoch-stamped scratch set). *)

val power_law_scale :
  Prng.t -> n:int -> attach:int -> weights:weight_dist -> Weighted_graph.t
(** Preferential attachment: vertex [u] attaches to [min attach u]
    distinct earlier vertices drawn degree-proportionally, yielding a
    power-law degree tail ([m = attach * n] up to the warm-up).  The
    general-graph analogue of {!power_law_bipartite} at scale. *)

val geometric_scale :
  Prng.t -> n:int -> avg_degree:float -> weights:weight_dist -> Weighted_graph.t
(** Random geometric graph on the unit square: points joined within
    distance [r], with [r] set so the expected degree is
    [avg_degree].  Neighbour search is cell-bucketed, so generation is
    O(n + m) rather than O(n^2). *)

val bipartite_skew_scale :
  Prng.t ->
  left:int ->
  right:int ->
  edges:int ->
  exponent:float ->
  weights:weight_dist ->
  Weighted_graph.t
(** Bipartite instance with exactly [edges] edges, an even left-side
    degree split and Zipf([exponent])-skewed right-side popularity —
    the assignment-market shape of {!power_law_bipartite}, generated
    grouped by left vertex so no global dedup is ever needed. *)

(** {1 Structured / adversarial families} *)

val path_graph : int list -> Weighted_graph.t
(** [path_graph [w1; ...; wk]] is the path [0-1-...-k] with the given
    edge weights. *)

val cycle_graph : int list -> Weighted_graph.t
(** [cycle_graph [w1; ...; wk]] is the cycle on [k] vertices ([k >= 3]). *)

val augmenting_cycle_family :
  cycles:int -> low:int -> high:int -> Weighted_graph.t * Matching.t
(** Disjoint 4-cycles with weights [(low, high, low, high)]; the returned
    matching is the perfect matching of [low]-edges.  Its weight can be
    improved only via augmenting {e cycles} — the hard case of
    Section 1.1.2. *)

val long_augmenting_paths :
  Prng.t -> paths:int -> half_length:int -> Weighted_graph.t * Matching.t
(** Disjoint alternating paths of [2*half_length + 1] edges each, with
    weights arranged so that improving the returned (matched-edge)
    matching requires augmenting along the {e entire} path.  Used for the
    Fact 1.3 length-vs-ratio figure. *)

val planted_three_augmentations :
  Prng.t -> k:int -> spare:int -> weights:weight_dist -> Weighted_graph.t * Matching.t
(** A matching of [k] edges, each the middle of a weighted
    3-augmentation whose side edges carry the same weight (gain [+w],
    zero excess — exactly the shape Algorithm 1's filter forwards),
    plus [spare] isolated matched edges that admit no augmentation.
    Exercises UNW-3-AUG-PATHS (Lemma 3.1) and WGT-AUG-PATHS
    (Algorithm 1). *)

val planted_quintuples :
  Prng.t -> k:int -> weights:weight_dist -> Weighted_graph.t * Matching.t
(** [k] disjoint quintuples [(e1, o1, e2, o2, e3)]: a matched middle
    edge [e2] of weight [w], matched outer edges of weight [w/4], and
    unmatched edges of weight [w].  Each is a weighted 3-augmentation of
    gain [w/2] that WGT-AUG-PATHS can recover only when [e2] is marked
    and neither outer edge is — probability [p(1-p)^2], the quantity
    ablated by experiment A2. *)

val near_half_trap : Prng.t -> blocks:int -> Weighted_graph.t
(** Unweighted instance on which greedy maximal matching can land near
    1/2 of optimum: disjoint paths of three edges where the middle edge
    is a greedy trap. *)

(** {1 Paper worked examples} *)

val paper_fig1 : unit -> Weighted_graph.t * Matching.t
(** The Figure 1 instance: matching [{c,d}] of weight 5; optimal
    [{a,c}, {d,f}] of weight 8; a length-3 alternating path that is
    unweighted-augmenting but decreases the weight. Vertices are
    [a=0 .. f=5]. *)

val paper_fig2 : unit -> Weighted_graph.t * Matching.t
(** The Figure 2 instance (weights chosen consistently with the text):
    matching [M0] on vertices [a=0 .. h=7] with a 1-augmentation
    ([{e,h}]), a weighted 3-augmentation path and an augmenting cycle. *)

val paper_four_cycle : unit -> Weighted_graph.t * Matching.t
(** The 4-cycle with weights (3,4,3,4) whose perfect matching of weight 6
    can be improved only through the augmenting cycle (Section 1.1.2). *)

val paper_nonsimple_path : unit -> Weighted_graph.t * Matching.t
(** The Section 1.1.2 instance on vertices [a=0 .. f=5] in which a naive
    layered graph admits an alternating path that is non-simple in [G]
    (the bold path [a-b-c-d-b-a]); used by the bipartition ablation. *)
