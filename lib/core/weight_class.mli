(** Geometric weight classes.

    Section 3 groups edges into doubling classes
    [W_i = (e : 2^(i-1) <= w e < 2^i)]; Section 4 sweeps augmentation
    classes whose scales are powers of a ratio ([1 + eps^4] in the
    paper, a tunable knob here). *)

val doubling_class : int -> int
(** [doubling_class w] is the unique [i >= 1] with
    [2^(i-1) <= w < 2^i]; requires [w >= 1]. *)

val geometric_scales : ratio:float -> max_value:float -> float list
(** [geometric_scales ~ratio ~max_value] is the increasing list
    [ratio^0, ratio^1, ...] up to the first scale [>= max_value]
    (that scale included).  Requires [ratio > 1.]. *)

val scale_floor : ratio:float -> float -> float
(** [scale_floor ~ratio x] is the largest power [ratio^i <= x] with
    [i >= 0] (so at least [1.]); the augmentation-class scale [W]
    assigned to an augmentation of weight [x] in Lemma 4.12. *)
