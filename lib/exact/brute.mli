(** Exact maximum-weight matching for tiny general graphs.

    Bitmask dynamic programming over vertex subsets: O(2^n · n) time and
    memoised space.  Intended as the reference oracle for property-based
    tests and small-instance ratio measurements; refuses graphs with more
    than 24 vertices. *)

val solve : Wm_graph.Weighted_graph.t -> Wm_graph.Matching.t
(** [solve g] is an exact maximum-weight matching.  Raises
    [Invalid_argument] when [n > 24]. *)

val optimum_weight : Wm_graph.Weighted_graph.t -> int
(** Weight of an exact maximum-weight matching. *)
