(** WGT-AUG-PATHS (Algorithm 1): improving a weighted matching via
    unweighted 3-augmentations.

    Initialised with a frozen matching [M0], the structure
    - marks each [M0]-edge independently with probability 1/2 (the
      guessed {e middle} edges of weighted 3-augmentations),
    - partitions marked edges into doubling weight classes, each served
      by a dedicated UNW-3-AUG-PATHS instance, and
    - in parallel runs a local-ratio instance on the {e excess} weights
      [w' e = w e - w (M0 u) - w (M0 v)] of arriving edges.

    An arriving edge is forwarded to the weight-class instance matching
    its own weight when the filtering thresholds of lines 9–15 hold;
    those thresholds guarantee that any unweighted 3-augmenting path
    found is also a strictly gainful weighted augmentation. *)

type result = {
  matching : Wm_graph.Matching.t;  (** the better of [M1] and [M2] *)
  m1 : Wm_graph.Matching.t;  (** [M0] improved by excess-weight matching *)
  m2 : Wm_graph.Matching.t;  (** [M0] improved by 3-augmentations *)
  marked : int;  (** number of marked middle edges *)
  forwarded : int;  (** edges forwarded to UNW-3-AUG-PATHS instances *)
  augmentations : int;  (** vertex-disjoint augmentations applied to [M2] *)
}

type t

val create :
  ?mark_prob:float ->
  ?meter:Wm_stream.Space_meter.t ->
  rng:Wm_graph.Prng.t ->
  m0:Wm_graph.Matching.t ->
  unit ->
  t
(** [create ~rng ~m0 ()] initialises the algorithm with the paper's
    excess-weight slack [alpha = 0.02], [beta = 0.4] for the
    UNW-3-AUG-PATHS instances, and local-ratio truncation [eps = 0.5]
    for the constant-factor excess-weight matcher.  [mark_prob]
    (default [0.5], the paper's value) is the middle-edge marking
    probability — exposed for the ablation experiment A2. *)

val feed : t -> Wm_graph.Edge.t -> unit
(** Process one arriving edge (lines 6–15). *)

val finalize : t -> result
(** Lines 16–20: build [M1] and [M2] and return the heavier. *)

val marked_count : t -> int
val forwarded_count : t -> int
