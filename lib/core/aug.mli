(** Augmentations: alternating paths and cycles with their gains
    (Definitions 4.2–4.5 of the paper).

    An augmentation is applied against a matching [M]: the edges of its
    {e matching neighbourhood} [C^M] — every [M]-edge incident to a
    vertex of [C], including those lying on [C] — are removed and the
    non-[M] edges of [C] are added.  The {e gain} [w+ C] is the
    resulting change in matching weight. *)

type t =
  | Path of Wm_graph.Edge.t list
      (** edges in path order; may start/end with either kind of edge *)
  | Cycle of Wm_graph.Edge.t list  (** edges in cycle order; even length *)

val edges : t -> Wm_graph.Edge.t list

val length : t -> int
(** Number of edges on the augmentation itself (excluding [C^M]
    edges that lie off it). *)

val vertices : t -> int list
(** Vertices of [C], each listed once. *)

val walk : t -> int list
(** The ordered vertex walk along the structure: [k+1] vertices for a
    path of [k] edges; for a cycle the first vertex is repeated at the
    end.  Raises [Invalid_argument] on disconnected edge lists. *)

val weight : t -> int
(** Total weight [w (C)]. *)

val is_alternating : t -> Wm_graph.Matching.t -> bool
(** Edges alternate between [M] and non-[M] along the path/cycle
    (and, for a cycle, also across the wrap-around). *)

val is_wellformed : t -> bool
(** Consecutive edges share exactly one endpoint, no vertex repeats
    (for cycles, the walk closes). *)

val matching_neighborhood : t -> Wm_graph.Matching.t -> Wm_graph.Edge.t list
(** [C^M]: all matching edges incident to vertices of [C], each once. *)

val unmatched_part : t -> Wm_graph.Matching.t -> Wm_graph.Edge.t list
(** [C \ M]: the edges of [C] that are not in the matching. *)

val gain : t -> Wm_graph.Matching.t -> int
(** [w+ C = w (C \ M) - w (C^M)]. *)

val apply : t -> Wm_graph.Matching.t -> unit
(** Remove [C^M], add [C \ M].  Raises [Invalid_argument] if [C] is not
    a well-formed alternating structure for the matching. *)

val conflicts : t -> t -> bool
(** The two augmentations share a vertex (so applying both is unsafe). *)

val canonical_key : t -> int list
(** A total, presentation-independent key: the lexicographically least
    vertex walk over both directions (paths) or all rotations of both
    directions (cycles), tagged so path and cycle keys never collide.
    Two augmentations over the same edges get the same key however
    their edge lists are oriented; used to pin equal-gain tie-breaking
    to a canonical order. *)

val touched_vertices : t -> Wm_graph.Matching.t -> int list
(** Vertices of [C ∪ C^M] — the set that must be reserved when applying
    augmentations greedily (Algorithm 3, line 8). *)

val pp : Format.formatter -> t -> unit
