(** Greedy matching baselines.

    [maximal_stream] is the folklore streaming 1/2-approximation for
    unweighted matching; [by_weight] is the offline greedy
    1/2-approximation for weighted matching.  Both serve as the
    comparison baselines of experiments T1 and T2. *)

val maximal_stream : Wm_stream.Edge_stream.t -> Wm_graph.Matching.t
(** One pass; adds each arriving edge iff both endpoints are free.
    Returns a maximal matching of the streamed graph. *)

val maximal : Wm_graph.Weighted_graph.t -> Wm_graph.Matching.t
(** Offline greedy maximal matching in the graph's edge order.  No
    program calls it: it is the tests' oracle for {!maximal_stream}. *)

val by_weight : Wm_graph.Weighted_graph.t -> Wm_graph.Matching.t
(** Offline greedy on edges sorted by decreasing weight: the classic
    1/2-approximate maximum weighted matching.  Edges are taken in
    (weight desc, u, v) order, a stable radix sort of
    {!Wm_graph.Weighted_graph.canonical_edges}, so the result depends on
    the edge set alone. *)
