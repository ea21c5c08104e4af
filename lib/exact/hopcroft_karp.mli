(** Hopcroft–Karp maximum-cardinality bipartite matching, in
    O(m sqrt n): the exact oracle that experiment T6 and the tests
    measure the streaming black box against. *)

val solve :
  Wm_graph.Weighted_graph.t -> left:(int -> bool) -> Wm_graph.Matching.t
(** [solve g ~left] returns a maximum-cardinality matching of the
    bipartite graph [g], whose sides are given by the [left] predicate.
    Raises [Invalid_argument] if some edge does not cross the
    bipartition. *)
