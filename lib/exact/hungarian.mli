(** Exact maximum-weight bipartite matching by sparse shortest
    augmenting paths: one Dijkstra phase on reduced costs per left
    vertex with an edge, over the graph's own adjacency.  A private
    zero-cost column per left vertex makes "leave it unmatched" an
    ordinary assignment, so the matching need not be perfect, and a
    weight-0 edge is never matched.  O(n + m) words (no cost table);
    worst case O(|L| * (n + m) log n) time.  The ground-truth [M*] of
    the bipartite experiment rows, and Algorithm 2's M1 on a bipartite
    retained set. *)

val solve :
  Wm_graph.Weighted_graph.t -> left:(int -> bool) -> Wm_graph.Matching.t
(** [solve g ~left] is an exact maximum-weight matching of bipartite [g].
    Raises [Invalid_argument] if some edge does not cross the
    bipartition. *)
