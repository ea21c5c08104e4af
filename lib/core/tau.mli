(** Good [(tau^A, tau^B)] pairs (Table 1) and weight bucketing.

    A pair fixes the shape of one layered graph: [tau^A] has one
    threshold per layer (matched edges), [tau^B] one per gap between
    consecutive layers (unmatched edges).  All thresholds are
    non-negative multiples of the granularity [g] (the paper's
    [eps^12]); we therefore represent them as integer {e granule}
    counts.  The defining constraints are:

    - (A) [|tau^A| <= max_layers];
    - (B) [|tau^B| = |tau^A| - 1] (and at least 1);
    - (C) entries are non-negative multiples of [g] (by representation);
    - (D) every [tau^B] entry, and every interior [tau^A] entry, is at
      least [2g] (ends of [tau^A] may be 0 — free path endpoints);
    - (E) [sum tau^B <= 1 + slack] (the augmentation weighs about [W]);
    - (F) [sum tau^B - sum tau^A >= g] (every captured alternating path
      strictly gains).

    The paper enumerates {e all} good pairs — a constant, but an
    astronomically large one.  We draw from the same space through two
    tractable generators over the buckets actually present in the data
    — homogeneous pairs (uniform thresholds, capturing the
    repeated-cycle constructions) and random sampling — while
    {!Aug_class} adds the pairs realised by alternating walks, checked
    with {!is_good_prefix}; plus the Lemma 4.12 {e capture}
    constructions used to certify that structural augmentations appear
    in some layered graph. *)

type params = {
  granularity : float;  (** granule size as a fraction of [W]; in (0, 1] *)
  max_layers : int;  (** maximum length of [tau^A]; at least 2 *)
  slack : float;  (** the [eps^4] in constraint (E) *)
}

val make_params : granularity:float -> max_layers:int -> slack:float -> params
(** Validates ranges. *)

val max_granules : params -> int
(** [floor ((1 + slack) / granularity)] — the largest admissible granule
    count for [sum tau^B]. *)

type pair = { a : int array; b : int array }
(** Threshold vectors in granule units: [tau^A_i = a.(i) * granularity],
    [tau^B_j = b.(j) * granularity]. *)

val layers : pair -> int
(** [|tau^A|], the number of layers of the corresponding layered graph. *)

val is_good : params -> pair -> bool

val is_good_prefix :
  params -> a:int array -> la:int -> b:int array -> lb:int -> bool
(** [is_good_prefix p ~a ~la ~b ~lb] is {!is_good} of the pair made of
    the first [la] entries of [a] and the first [lb] of [b], without
    building it. *)

val bucket_up : granule:float -> int -> int
(** [bucket_up ~granule w] is the smallest [k] with [k * granule >= w]
    — the bucket of a {e matched} edge (its weight is rounded {e up}). *)

val bucket_down : granule:float -> int -> int
(** Largest [k] with [k * granule <= w] — the bucket of an {e unmatched}
    edge (rounded {e down}). *)

val iter_homogeneous :
  params -> a_values:int list -> b_values:int list -> (pair -> unit) -> unit
(** The good homogeneous pairs: a uniform interior [tau^A] value and a
    uniform [tau^B] value drawn from the given buckets, over all
    admissible lengths and end choices (0 or the uniform value).  These
    capture uniform-weight augmentations and the repeated-cycle
    construction of Section 1.1.2.  The callback receives each pair in
    generation order through a {e scratch} pair whose arrays are
    overwritten between calls — copy [a]/[b] before retaining anything.
    Equal contents may be presented more than once (end choices coincide
    when the uniform value is 0, and short shapes repeat across uniform
    values); deduplication is the caller's concern. *)

val sample :
  params ->
  Wm_graph.Prng.t ->
  a_values:int list ->
  b_values:int list ->
  count:int ->
  pair list
(** [count] random draws over the given buckets, filtered to good pairs
    and deduplicated (the result may be shorter than [count]). *)

module Tbl : Hashtbl.S with type key = pair
(** Hash tables keyed by a pair's contents. *)

val dedup : pair list -> pair list
(** First occurrence of each pair's contents, in order. *)


val capture_path : params -> a_buckets:int list -> b_buckets:int list -> pair option
(** Lemma 4.12 (path case): the pair whose layered graph contains a path
    augmentation with the given matched-edge buckets (in path order,
    padded with 0 at free endpoints by the caller) and unmatched-edge
    buckets.  [None] when the pair is not good (the augmentation is not
    capturable at this granularity). *)

val capture_cycle :
  params -> a_buckets:int list -> b_buckets:int list -> repetitions:int -> pair option
(** Lemma 4.12 (cycle case): the cycle's buckets repeated [repetitions]
    times, with the first matched bucket appended once more. *)

val pp : Format.formatter -> pair -> unit
