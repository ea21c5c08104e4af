(** Ground-truth maximum-weight matching dispatcher.

    Picks the strongest exact solver for the instance: the sparse
    {!Hungarian} solver (O(n + m) memory, no size cap) when the graph is
    bipartite, the O(n^3) weighted blossom ({!Weighted_blossom})
    otherwise.  The bitmask-DP oracle ({!Brute})
    stays available as an independent cross-check for tests. *)

val solve_opt : Wm_graph.Weighted_graph.t -> Wm_graph.Matching.t option
(** [solve_opt g] is an exact maximum-weight matching; [None] only for
    non-bipartite instances beyond the O(n^3) blossom's size cap. *)

val lower_bound : Wm_graph.Weighted_graph.t -> Wm_graph.Matching.t
(** Best matching found by the strongest applicable method, exact or
    heuristic: exact solver when available, otherwise iterated local
    augmentation.  Used only to normalise ratios on instances where the
    optimum is out of reach; rows produced this way are flagged in the
    harness. *)
