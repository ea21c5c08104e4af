(** UNW-3-AUG-PATHS (Lemma 3.1, after Kale–Tirodkar): a one-pass
    streaming algorithm that, given an initial matching [M] and a stream
    of edges containing at least [beta |M|] vertex-disjoint 3-augmenting
    paths, returns at least [(beta^2/32) |M|] vertex-disjoint
    3-augmenting paths using [O(|M|)] retained edges.

    The algorithm keeps a support set [S]: an arriving edge joining an
    [M]-free vertex [u] to an [M]-matched vertex [v] is retained when
    [deg_S u < lambda] and [deg_S v < 2], with [lambda = 8/beta]. *)

type aug3 = {
  left : Wm_graph.Edge.t;  (** free–matched edge at one end *)
  mid : Wm_graph.Edge.t;  (** the matching edge being augmented out *)
  right : Wm_graph.Edge.t;  (** free–matched edge at the other end *)
}
(** A 3-augmenting path [a - v - w - b] with [mid = (v,w)] in the
    matching and [a], [b] free. *)

type t

val create :
  ?meter:Wm_stream.Space_meter.t ->
  ?lambda:int ->
  n:int ->
  mid:Wm_graph.Matching.t ->
  beta:float ->
  unit ->
  t
(** [create ~n ~mid ~beta ()] initialises the algorithm with matching
    [mid] over vertices [0..n-1].  [beta > 0].  [?lambda] overrides the
    support-degree cap (callers use [max_int] for the offline
    keep-everything mode of tiny weight classes, Lemma 3.9). *)

val feed : t -> Wm_graph.Edge.t -> unit
(** Process one arriving edge; edges that do not join a free vertex to a
    matched vertex are ignored. *)

val support_size : t -> int
(** Number of retained support edges (the space bound is
    [<= 4 lambda |M|]... in fact [<= (lambda + 2) |M|]-ish; tests check
    [O(|M|)] empirically). *)

val finalize : t -> aug3 list
(** Greedily extract vertex-disjoint 3-augmenting paths from the support
    set. *)

val apply_all : Wm_graph.Matching.t -> aug3 list -> unit
(** Apply the augmentations to a matching containing the [mid] edges:
    each [mid] is removed and [left]/[right] added.  Raises
    [Invalid_argument] on conflicts (the list must be vertex-disjoint
    and consistent with the matching). *)
