(** Matchings: sets of pairwise vertex-disjoint edges.

    The representation is a mutable mate table ([vertex -> matched edge])
    with incrementally maintained cardinality and weight, so that the
    streaming algorithms can update matchings in O(1) per operation.

    Following the paper's convention, [weight_at m v] is the weight of the
    matching edge incident to [v], and [0] when [v] is unmatched (the
    "artificial zero-weight edge" of Section 3.2). *)

type t

val create : int -> t
(** [create n] is the empty matching over vertices [0..n-1]. *)

val of_edges : int -> Edge.t list -> t
(** [of_edges n edges] builds a matching from vertex-disjoint edges.
    Raises [Invalid_argument] if two edges share a vertex. *)

val copy : t -> t

val extend : t -> int -> t
(** [extend m n'] is a copy of [m] over the ambient vertex set grown to
    [max n' (n m)]; matched edges are unchanged.  Used to carry a
    matching forward onto a graph that gained vertices. *)

val n : t -> int
(** Size of the ambient vertex set. *)

val size : t -> int
(** Number of matched edges. *)

val weight : t -> int
(** Total weight of matched edges. *)

val is_matched : t -> int -> bool

val mate : t -> int -> int option
(** [mate m v] is the vertex matched to [v], if any. *)

val edge_at : t -> int -> Edge.t option
(** [edge_at m v] is the matching edge incident to [v], if any. *)

val weight_at : t -> int -> int
(** [weight_at m v] is [w (M (v))]: the weight of the matching edge at
    [v], or [0] when [v] is unmatched. *)

val mem : t -> Edge.t -> bool
(** [mem m e] is true iff an edge with [e]'s endpoints is in [m]. *)

val add : t -> Edge.t -> unit
(** Adds an edge.  Raises [Invalid_argument] if either endpoint is
    already matched. *)

val add_evicting : t -> Edge.t -> Edge.t list
(** [add_evicting m e] removes any matching edges conflicting with [e],
    adds [e], and returns the removed edges. *)

val try_add : t -> Edge.t -> bool
(** [try_add m e] adds [e] if both endpoints are free; returns whether
    the edge was added. *)

val remove : t -> Edge.t -> unit
(** Removes an edge.  Raises [Invalid_argument] if the edge (by
    endpoints) is not in the matching, or if the two endpoint slots
    disagree (a stale mate left by a buggy caller) — both endpoints are
    validated so that removal can never half-apply. *)

val edges : t -> Edge.t list
(** The matched edges, each listed once. *)

val iter : (Edge.t -> unit) -> t -> unit

val fold : ('a -> Edge.t -> 'a) -> 'a -> t -> 'a

val is_maximal_in : t -> Weighted_graph.t -> bool
(** No graph edge has both endpoints free. *)

val is_valid_in : t -> Weighted_graph.t -> bool
(** Every matching edge is an edge of the graph (same endpoints and
    weight). *)
